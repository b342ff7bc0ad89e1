"""Generator-labeled nest graphs and group certificates.

Vertices are the variant's nest labels. For each nest representative R
and each generator g, an edge runs from R's label to the label of the
canonicalized image of act(g, R). Weak components of the graph are the
orbit candidates; a candidate group is complete when the component
count matches the variant's true orbit count, and minimal when its
order also equals the least common multiple of the true orbit sizes.
Each variant's groups come from its record in nests._VARIANTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable

from . import catalog
from .catalog import NamedGenerator, parse_generator
from .errors import DomainError
from .nests import (
    MM,
    SM,
    _VARIANTS,
    Census,
    NestLabel,
    canonicalize,
    census,
    labels,
    normalize_variant,
    representative,
)
from .perms import act, closure

__all__ = [
    "NestGraph",
    "MinimalityReport",
    "EXPECTED_ORBITS",
    "default_physical_generators",
    "build_nest_graph",
    "weak_components",
    "to_dot",
    "completeness",
    "orbit_sizes",
    "minimality",
]

#: True orbit counts under the full symmetry group per variant.
EXPECTED_ORBITS = {MM: 2, SM: 3}


@dataclass(frozen=True)
class NestGraph:
    variant: str
    vertices: tuple[NestLabel, ...]
    edges: tuple[tuple[NestLabel, NestLabel, str], ...]


@dataclass(frozen=True)
class MinimalityReport:
    group_order: int
    largest_orbit: int
    component_count: int
    expected_orbit_count: int
    complete: bool
    minimal: bool
    orbit_sizes: tuple[int, ...]
    orbit_lcm: int


def _as_generators(gens: Iterable[NamedGenerator | str]) -> tuple[NamedGenerator, ...]:
    return tuple(g if isinstance(g, NamedGenerator) else parse_generator(str(g)) for g in gens)


def default_physical_generators(variant: str) -> tuple[NamedGenerator, ...]:
    """Physical generators that extend the nest-defining group to the
    variant's full physical group: none for modular-magic, the leading
    band and pillar swaps for semi-magic."""
    return _VARIANTS[normalize_variant(variant)].nest_extension


def build_nest_graph(
    variant: str,
    rel_generators: Iterable[NamedGenerator | str],
    phys_generators: Iterable[NamedGenerator | str] | None = None,
) -> NestGraph:
    """Apply each generator to each nest representative and record the
    nest of the image."""
    v = normalize_variant(variant)
    rel = _as_generators(rel_generators)
    phys = (
        default_physical_generators(v)
        if phys_generators is None
        else _as_generators(phys_generators)
    )
    verts = labels(v)
    edges = []
    for label in verts:
        board = representative(label)
        for gen in rel + phys:
            try:
                target, _ = canonicalize(v, act(gen.symmetry, board))
            except DomainError as exc:
                raise DomainError(
                    f"generator {gen.name} does not preserve the {v} predicate"
                ) from exc
            edges.append((label, target, gen.name))
    return NestGraph(v, verts, tuple(edges))


def weak_components(graph: NestGraph) -> tuple[tuple[NestLabel, ...], ...]:
    """Connected components ignoring edge direction, each sorted by
    label, listed smallest first (ties by label)."""
    index = {label: i for i, label in enumerate(graph.vertices)}
    parent = list(range(len(graph.vertices)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for src, dst, _ in graph.edges:
        a, b = find(index[src]), find(index[dst])
        if a != b:
            parent[a] = b
    groups: dict[int, list[NestLabel]] = {}
    for label, i in index.items():
        groups.setdefault(find(i), []).append(label)
    comps = [tuple(sorted(members)) for members in groups.values()]
    comps.sort(key=lambda c: (len(c), c))
    return tuple(comps)


def to_dot(graph: NestGraph) -> str:
    """Deterministic DOT text: vertices in sorted order, then one edge
    statement per (from, to, generator) including self-loops."""
    lines = ["digraph nests {"]
    for label in sorted(graph.vertices):
        lines.append(f'  "{label}";')
    for src, dst, name in sorted(graph.edges, key=lambda e: (e[0], e[1], e[2])):
        lines.append(f'  "{src}" -> "{dst}" [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def completeness(variant: str, rel_generators: Iterable[NamedGenerator | str]) -> bool:
    """True when the nest graph has exactly the true orbit count of
    weak components."""
    v = normalize_variant(variant)
    graph = build_nest_graph(v, rel_generators)
    return len(weak_components(graph)) == EXPECTED_ORBITS[v]


@cache
def _orbit_components(variant: str) -> tuple[tuple[NestLabel, ...], ...]:
    """Weak components of the variant's nest graph under every non-identity
    element of its relabeling group: the true orbits, built once per variant."""
    group = _VARIANTS[variant].relabelings()
    rel = [catalog.relabeling(s.digit) for s in group if not s.is_identity]
    return weak_components(build_nest_graph(variant, rel))


def orbit_sizes(variant: str, nest_census: Census | None = None) -> tuple[int, ...]:
    """Board counts of the true orbits, ascending: the weak components of
    the nest graph under the full relabeling group. Pass a precomputed
    census to skip re-enumeration; DomainError if it lacks one of the
    variant's nests."""
    v = normalize_variant(variant)
    if nest_census is None:
        nest_census = census(v)
    counts = nest_census.counts
    for label in labels(v):
        if label not in counts:
            raise DomainError(f"{nest_census.variant} census has no {v} nest {label}")
    return tuple(sorted(sum(counts[label] for label in comp) for comp in _orbit_components(v)))


def minimality(
    variant: str,
    phys_group: object | None = None,
    rel_generators: Iterable[NamedGenerator | str] = (),
    nest_census: Census | None = None,
) -> MinimalityReport:
    """Certify the candidate group (physical x relabeling closure).

    Complete means its nest graph splits into the true orbit count of
    components. Minimal additionally requires the group order to equal
    lcm of the true orbit sizes, the smallest order any complete group
    can have.
    """
    v = normalize_variant(variant)
    if phys_group is None:
        phys_group = catalog._physical_group(_VARIANTS[v].physical)
    phys_order = phys_group if isinstance(phys_group, int) else phys_group.order
    rel = _as_generators(rel_generators)
    rel_order = closure([g.symmetry for g in rel]).order
    group_order = phys_order * rel_order
    graph = build_nest_graph(v, rel)
    component_count = len(weak_components(graph))
    sizes = orbit_sizes(v, nest_census=nest_census)
    orbit_lcm = math.lcm(*sizes)
    complete = component_count == EXPECTED_ORBITS[v]
    return MinimalityReport(
        group_order=group_order,
        largest_orbit=max(sizes),
        component_count=component_count,
        expected_orbit_count=EXPECTED_ORBITS[v],
        complete=complete,
        minimal=complete and group_order == orbit_lcm,
        orbit_sizes=sizes,
        orbit_lcm=orbit_lcm,
    )
