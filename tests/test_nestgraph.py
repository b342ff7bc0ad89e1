"""Generator-labeled nest graphs, components, DOT output, minimality."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from magicsudoku import catalog, nestgraph as ng, nests
from magicsudoku.errors import DomainError

MU_NAME = "mu(4,0)"
RHO_MU = ("rho", MU_NAME)
SM_MU = "(12)(45)(78)"
UV = ("swap_bands(0,1)", "swap_pillars(0,1)")


def _lab(a, b, variant="MM"):
    return nests.NestLabel(variant, a, b)


def _action(graph, token):
    return {src: dst for src, dst, t in graph.edges if t == token}


def test_expected_orbit_constants(mm_census, sm_census):
    # The true orbit counts, derived from the full group's nest graph.
    assert len(ng.orbit_sizes("MM", mm_census)) == 2
    assert len(ng.orbit_sizes("SM", sm_census)) == 3


def test_completeness_agrees_with_minimality(mm_census, sm_census):
    cases = [("MM", []), ("MM", ["rho"]), ("MM", [MU_NAME]), ("MM", list(RHO_MU)),
             ("SM", [SM_MU])]
    complete = []
    for variant, gens in cases:
        census = mm_census if variant == "MM" else sm_census
        report = ng.minimality(variant, rel_generators=gens, nest_census=census)
        assert ng.completeness(variant, gens) == report.complete
        assert report.expected_orbit_count == len(report.orbit_sizes)
        complete.append(report.complete)
    assert complete == [False, False, False, True, True]


def test_import_builds_no_nest_graph():
    # A fresh process, so that no other test has filled the cache: the
    # true orbits are built on first use, not at import.
    code = (
        "import magicsudoku\n"
        "from magicsudoku import nestgraph\n"
        "print(nestgraph._orbit_components.cache_info().currsize)\n"
    )
    src = str(Path(ng.__file__).resolve().parents[1])
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_mm_graph_shape():
    graph = ng.build_nest_graph("MM", RHO_MU)
    assert graph.variant == "MM"
    assert list(graph.vertices) == list(nests.mm_labels())
    assert len(graph.edges) == 18
    for token in RHO_MU:
        action = _action(graph, token)
        assert sorted(action) == list(graph.vertices)
        assert sorted(action.values()) == list(graph.vertices)


def test_mm_graph_pinned_actions():
    graph = ng.build_nest_graph("MM", RHO_MU)
    rho = _action(graph, "rho")
    mu = _action(graph, MU_NAME)
    assert rho[_lab(7, 7)] == _lab(7, 7)
    for a, b in (((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 8), (2, 7)), ((7, 2), (7, 5))):
        assert rho[_lab(*a)] == _lab(*b)
        assert rho[_lab(*b)] == _lab(*a)
    for cycle in (
        ((1, 1), (2, 2), (7, 7)),
        ((1, 2), (2, 7), (7, 5)),
        ((1, 8), (2, 1), (7, 2)),
    ):
        for i, src in enumerate(cycle):
            assert mu[_lab(*src)] == _lab(*cycle[(i + 1) % 3])


def test_mm_components():
    graph = ng.build_nest_graph("MM", RHO_MU)
    comps = ng.weak_components(graph)
    assert [len(c) for c in comps] == [3, 6]
    assert [str(l) for l in comps[0]] == ["[1,1]", "[2,2]", "[7,7]"]


def test_components_without_edges_are_singletons():
    graph = ng.NestGraph("MM", tuple(nests.mm_labels()), ())
    comps = ng.weak_components(graph)
    assert [len(c) for c in comps] == [1] * 9
    assert [c[0] for c in comps] == list(nests.mm_labels())


def test_adding_generators_never_splits_components():
    few = len(ng.weak_components(ng.build_nest_graph("MM", ["rho"])))
    more = len(ng.weak_components(ng.build_nest_graph("MM", RHO_MU)))
    assert few == 5
    assert more == 2
    assert more <= few


def test_dot_output():
    graph = ng.build_nest_graph("MM", RHO_MU)
    dot = ng.to_dot(graph)
    lines = dot.splitlines()
    assert lines[0] == "digraph nests {"
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    assert '  "[7,7]" -> "[7,7]" [label="rho"];' in lines
    assert '  "[7,7]" -> "[1,1]" [label="mu(4,0)"];' in lines
    assert '  "[1,1]";' in lines
    # Deterministic output: rebuilding gives identical bytes.
    assert ng.to_dot(ng.build_nest_graph("MM", RHO_MU)) == dot


def test_dot_empty_graph():
    dot = ng.to_dot(ng.NestGraph("MM", (), ()))
    assert dot == "digraph nests {\n}\n"


def test_rejects_predicate_breaking_generators():
    for variant, token in (("MM", "(012345678)"), ("SM", "(01)")):
        want = f"generator {token} does not preserve the {variant} predicate"
        with pytest.raises(DomainError, match=re.escape(want)):
            ng.build_nest_graph(variant, [token])
    with pytest.raises(DomainError):
        ng.build_nest_graph("MM", ["no_such_generator"])


def test_sm_uv_graph():
    graph = ng.build_nest_graph("SM", [], UV)
    comps = ng.weak_components(graph)
    assert [len(c) for c in comps] == [1, 3, 3, 9]
    assert [str(l) for l in comps[0]] == ["[7,8]"]
    assert {str(l) for l in comps[1]} == {"[2,4]", "[2,8]", "[7,4]"}
    assert {str(l) for l in comps[2]} == {"[5,1]", "[5,8]", "[7,1]"}


def test_sm_mu_fixed_points():
    graph = ng.build_nest_graph("SM", [SM_MU], [])
    assert len(graph.edges) == 16
    fixed = sorted(str(s) for s, d, _ in graph.edges if s == d)
    assert fixed == ["[2,1]", "[5,4]", "[6,6]", "[7,8]"]


def test_sm_uv_mu_graph_uses_default_physical_generators():
    graph = ng.build_nest_graph("SM", [SM_MU])
    comps = ng.weak_components(graph)
    assert [len(c) for c in comps] == [1, 6, 9]
    assert [str(l) for l in comps[0]] == ["[7,8]"]


@pytest.mark.parametrize("variant, order", [("MM", 4608), ("SM", 3_359_232)])
def test_nest_generators_and_defaults_generate_the_full_physical_group(
    variant, order, mm_census, sm_census
):
    # The nest-defining generators plus the defaults a nest graph adds
    # must generate the group whose order minimality certifies.
    nest_generators = nests._VARIANTS[variant].nest_generators()
    extended = catalog.PhysicalGroup(nest_generators + list(ng.default_physical_generators(variant)))
    census = mm_census if variant == "MM" else sm_census
    assert extended.order == ng.minimality(variant, nest_census=census).group_order == order


def test_completeness():
    assert ng.completeness("MM", RHO_MU)
    assert not ng.completeness("MM", ["rho"])
    assert not ng.completeness("MM", [MU_NAME])
    assert ng.completeness("SM", [SM_MU])
    assert not ng.completeness("SM", [])


def test_mm_minimality(mm_census):
    small = ng.minimality("MM", catalog.h_mm_group(), RHO_MU, mm_census)
    assert small.group_order == 27648
    assert small.largest_orbit == 27648
    assert small.orbit_sizes == (4608, 27648)
    assert small.orbit_lcm == 27648
    assert small.component_count == small.expected_orbit_count == 2
    assert small.complete and small.minimal

    full_rel = [g.name for g in catalog.s_mm_generators()]
    full = ng.minimality("MM", catalog.h_mm_group(), full_rel, mm_census)
    assert full.group_order == 165888
    assert full.complete
    assert not full.minimal


def test_minimality_accepts_plain_order(mm_census):
    via_int = ng.minimality("MM", 4608, RHO_MU, mm_census)
    via_group = ng.minimality("MM", catalog.h_mm_group(), RHO_MU, mm_census)
    assert via_int == via_group


@pytest.mark.parametrize("phys_group", ["abc", -5, 0, 4608.0, object()])
def test_minimality_takes_only_a_positive_group_order(phys_group, mm_census):
    with pytest.raises(DomainError, match="^phys_group must be a group or its order"):
        ng.minimality("MM", phys_group, RHO_MU, mm_census)


def test_a_nest_census_that_is_not_a_census_is_a_domain_error():
    for call in (ng.orbit_sizes, ng.minimality):
        for given in ("x", {}, 5):
            with pytest.raises(DomainError, match="^nest_census must be a Census"):
                call("MM", nest_census=given)


def test_sm_minimality(sm_census):
    report = ng.minimality("SM", catalog.h9_group(), [SM_MU], sm_census)
    assert report.group_order == 2 * 3359232 == 18 * 72**3
    assert report.orbit_sizes == (373248, 2239488, 3359232)
    assert report.orbit_lcm == math.lcm(*report.orbit_sizes) == report.group_order
    assert report.complete and report.minimal


def test_orbit_sizes(mm_census, sm_census):
    assert ng.orbit_sizes("MM", nest_census=mm_census) == (4608, 27648)
    sm = ng.orbit_sizes("SM", nest_census=sm_census)
    assert sm == (373248, 2239488, 3359232)
    assert sum(sm) == 5971968


def test_orbit_graph_is_built_once_per_variant(monkeypatch, mm_census, sm_census):
    # orbit_sizes and every minimality call read one cached orbit graph
    # per variant; the reports are unchanged.
    built = []
    for variant, spec in nests._VARIANTS.items():

        def counted(spec=spec, variant=variant):
            built.append(variant)
            return spec.relabelings()

        monkeypatch.setitem(nests._VARIANTS, variant, spec._replace(relabelings=counted))
    ng._orbit_components.cache_clear()
    full_mm = [g.name for g in catalog.s_mm_generators()]
    want = {
        ("MM", RHO_MU): ng.MinimalityReport(27648, 27648, 2, 2, True, True, (4608, 27648), 27648),
        ("MM", tuple(full_mm)): ng.MinimalityReport(
            165888, 27648, 2, 2, True, False, (4608, 27648), 27648
        ),
        ("SM", (SM_MU,)): ng.MinimalityReport(
            6718464, 3359232, 3, 3, True, True, (373248, 2239488, 3359232), 6718464
        ),
    }
    try:
        for _ in range(3):
            for (variant, rel), report in want.items():
                census = mm_census if variant == "MM" else sm_census
                assert ng.minimality(variant, rel_generators=rel, nest_census=census) == report
                assert ng.orbit_sizes(variant, nest_census=census) == report.orbit_sizes
        assert sorted(built) == ["MM", "SM"]
    finally:
        ng._orbit_components.cache_clear()


def test_mm_orbit_graph_over_the_group_has_the_generators_components():
    # The orbit graph reads every non-identity relabeling; a group and any
    # generating set of it join the same nests.
    group = catalog.s_mm_elements()
    everything = [catalog.relabeling(s.digit) for s in group if not s.is_identity]
    assert len(everything) == 35
    by_group = ng.weak_components(ng.build_nest_graph("MM", everything))
    assert by_group == ng.weak_components(ng.build_nest_graph("MM", catalog.s_mm_generators()))
    assert ng._orbit_components("MM") == by_group
    assert [len(c) for c in by_group] == [3, 6]


def test_a_census_lacking_a_nest_is_a_domain_error(mm_census, sm_census):
    # Another variant's census, or a slice census that misses a nest.
    cases = [("MM", sm_census, "SM census has no MM nest [1,1]"),
             ("SM", mm_census, "MM census has no SM nest [2,1]"),
             ("MM", nests.census("MM", (1, 81)), "MM census has no MM nest [2,2]")]
    for variant, given, want in cases:
        for call in (ng.orbit_sizes, ng.minimality):
            with pytest.raises(DomainError, match=re.escape(want)):
                call(variant, nest_census=given)
