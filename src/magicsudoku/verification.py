"""One-shot verification of every published value the package
reproduces: group orders, enumeration counts, censuses, nest graphs,
minimality certificates, decomposition suites, and property samples.

Checks are registered by name; each returns an (expected, actual) pair
of JSON-ready values and passes exactly when they are equal. Checks
that differ between the variants only in data share one function, and
each registered entry passes its pinned values as arguments. A variant's
census (over all 32,256 or 5,971,968 boards) is shared through a
VerifyContext by its count, census, minimality and orbit-size checks,
and one sweep re-checks each modular-magic board for the off-diagonal
check. Both property checks draw each board at a uniform index of its
variant's join, and decode each physical draw from its factored group
and split it back to its parts, building no element table.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from . import catalog, nestgraph, nests
from .analysis import check_two_equal, g9_minimality_certificate
from .boards import Board, format_board
from .enumeration import (
    _map_partitions,
    _random_board,
    complete_standard_gnomon,
    enumerate_modular_magic,
    random_semi_magic,
    semi_magic_blocks,
)
from .errors import DomainError, IntegrityError, MagicSudokuError, _in_range
from .keedwell import (
    apply_alpha,
    apply_beta,
    keedwell_decompose,
    linearity_degree,
    swap_block_columns,
)
from .nests import MM, SM, Census, NestLabel
from .perms import Symmetry, act, compose, identity, inverse

__all__ = [
    "CheckResult",
    "VerifyReport",
    "VerifyContext",
    "CHECKS",
    "CRITERIA",
    "VARIANT_CHECKS",
    "run_checks",
]

DEFAULT_SEED = 20260823
SM_CROSSCHECK_TARGET = 10_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    actual: object
    passed: bool
    seconds: float


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    overall: bool

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                    "seconds": round(c.seconds, 3),
                }
                for c in self.checks
            ],
            "overall": self.overall,
        }


# --- shared enumeration passes ---


def _mm_sweep_slice(partition: tuple[int, int] | None) -> tuple[int, int]:
    """(boards, check_two_equal failures) over one slice of the
    modular-magic boards; a board failing is_modular_magic, which
    check_two_equal tests first, raises IntegrityError."""
    failures = 0

    def visit(board: Board) -> None:
        nonlocal failures
        try:
            failures += not check_two_equal(board)
        except DomainError as exc:
            text = format_board(board)
            raise IntegrityError(f"enumerated board {text} is not modular-magic") from exc

    return enumerate_modular_magic(visit, partition), failures


def _sm_crosscheck_slice(
    boards: list[Board], partition: tuple[int, int] | None
) -> tuple[int, int]:
    """(boards, mismatches) of nests.crosscheck_sm over one slice of the
    boards, boards[w::n]."""
    w, n = partition or (0, 1)
    mine = boards[w::n]
    mismatches = 0
    for board in mine:
        try:
            nests.crosscheck_sm(board)
        except MagicSudokuError:
            mismatches += 1
    return len(mine), mismatches


class VerifyContext:
    """Lazy shared state for the check suite: each shared result is
    computed once and timed.

    threads > 1 splits the censuses, the off-diagonal sweep and the
    semi-magic crosscheck's comparisons across processes; the crosscheck
    draws its boards in the calling process, and all other work stays
    there too. Results do not depend on threads.
    """

    def __init__(self, threads: int = 1):
        self.threads = _in_range(threads, f"bad thread count {threads!r}", 1)
        self._results: dict[str, object] = {}
        self._seconds: dict[str, float] = {}

    def _once(self, key: str, compute: Callable[[], object]):
        if key not in self._results:
            t0 = time.perf_counter()
            self._results[key] = compute()
            self._seconds[key] = time.perf_counter() - t0
        return self._results[key]

    def _summed(self, fn: Callable[[tuple[int, int] | None], tuple[int, int]]) -> tuple[int, int]:
        """fn's (boards, failures) pairs over the threads slices, summed."""
        return tuple(map(sum, zip(*_map_partitions(fn, self.threads))))

    def census(self, variant: str) -> Census:
        v = nests.normalize_variant(variant)
        return self._once(v, lambda: nests._threaded_census(v, self.threads))

    def off_diagonal_sweep(self) -> tuple[int, int]:
        """(boards, check_two_equal failures) over every modular-magic
        board, each re-checked with is_modular_magic."""
        return self._once("off_diagonal_sweep", lambda: self._summed(_mm_sweep_slice))

    def enumeration_seconds(self, variant: str) -> float:
        """Time of the work a variant's enumeration time bound covers:
        its census, plus the off-diagonal sweep for modular-magic."""
        v = nests.normalize_variant(variant)
        self.census(v)
        if v == SM:
            return self._seconds[SM]
        self.off_diagonal_sweep()
        return self._seconds[MM] + self._seconds["off_diagonal_sweep"]

    def sm_crosscheck(self) -> tuple[int, int]:
        """(boards checked, mismatches) for the label-table vs
        scan-oracle comparison on random semi-magic boards, drawn here
        and compared in threads slices. A mismatch is a
        MagicSudokuError; any other exception propagates."""

        def crosscheck() -> tuple[int, int]:
            rng = random.Random(DEFAULT_SEED)
            boards = [random_semi_magic(rng) for _ in range(SM_CROSSCHECK_TARGET)]
            return self._summed(partial(_sm_crosscheck_slice, boards))

        return self._once("sm_crosscheck", crosscheck)


# --- individual checks ---


def _check_group_orders(ctx: VerifyContext):
    t0 = time.perf_counter()
    actual = {
        "h_mm": catalog._physical_group(catalog.h_mm_generators).order,
        "s_mm": catalog.s_mm_elements().order,
        "g_mm": catalog.g_mm_group().order,
        "h_gamma": catalog._physical_group(catalog.h_gamma_generators).order,
        "h_9": catalog.h9_group().order,
        "s_sm": catalog.s_sm_group().order,
        "g_sm": catalog.g_sm_order(),
    }
    actual["within_600s"] = time.perf_counter() - t0 < 600
    expected = {
        "h_mm": 4608,
        "s_mm": 36,
        "g_mm": 165_888,
        "h_gamma": 373_248,
        "h_9": 3_359_232,
        "s_sm": 72,
        "g_sm": 241_864_704,
        "within_600s": True,
    }
    return expected, actual


def _check_enumeration(ctx: VerifyContext, variant: str, count: int, within_s: int):
    within = f"within_{within_s}s"
    expected = {"count": count, within: True}
    actual = {
        "count": ctx.census(variant).total,
        within: ctx.enumeration_seconds(variant) < within_s,
    }
    return expected, actual


def _check_timed_count(ctx: VerifyContext, build: Callable[[], tuple], count: int):
    # Time a fresh build: an earlier check may have filled build's cache.
    t0 = time.perf_counter()
    actual = len(build.__wrapped__())
    elapsed = time.perf_counter() - t0
    return (
        {"count": count, "within_1s": True},
        {"count": actual, "within_1s": elapsed < 1},
    )


def _check_mm_census(ctx: VerifyContext):
    expected = {
        "counts": {
            "[1,1]": 1536, "[1,2]": 4608, "[1,8]": 4608,
            "[2,1]": 4608, "[2,2]": 1536, "[2,7]": 4608,
            "[7,2]": 4608, "[7,5]": 4608, "[7,7]": 1536,
        },
        "total": 32_256,
    }
    census = ctx.census(MM)
    actual = {
        "counts": {str(label): n for label, n in census.counts.items()},
        "total": census.total,
    }
    return expected, actual


def _check_sm_census(ctx: VerifyContext):
    census = ctx.census(SM)
    actual = {
        "label_count": len(census.counts),
        "distinct_sizes": sorted(set(census.counts.values())),
        "labels_match_standard_boards": sorted(census.counts) == list(nests.sm_labels()),
        "total": census.total,
    }
    expected = {
        "label_count": 16,
        "distinct_sizes": [373_248],
        "labels_match_standard_boards": True,
        "total": 5_971_968,
    }
    return expected, actual


def _check_sm_crosscheck(ctx: VerifyContext):
    checked, mismatches = ctx.sm_crosscheck()
    return (
        {"mismatches": 0, "at_least_10000": True},
        {"mismatches": mismatches, "at_least_10000": checked >= 10_000},
    )


def _check_mm_nest_graph(ctx: VerifyContext):
    graph = nestgraph.build_nest_graph(MM, ["rho", "mu(4,0)"])
    comps = nestgraph.weak_components(graph)
    actual = {
        "component_sizes": [len(c) for c in comps],
        "small_component": [str(l) for l in comps[0]],
    }
    expected = {
        "component_sizes": [3, 6],
        "small_component": ["[1,1]", "[2,2]", "[7,7]"],
    }
    return expected, actual


def _check_sm_nest_graphs(ctx: VerifyContext):
    uv = nestgraph.build_nest_graph(SM, [], ["swap_bands(0,1)", "swap_pillars(0,1)"])
    uv_mu = nestgraph.build_nest_graph(SM, ["(12)(45)(78)"])
    actual = {
        "uv_sizes": [len(c) for c in nestgraph.weak_components(uv)],
        "uv_mu_sizes": [len(c) for c in nestgraph.weak_components(uv_mu)],
    }
    expected = {"uv_sizes": [1, 3, 3, 9], "uv_mu_sizes": [1, 6, 9]}
    return expected, actual


def _check_mm_minimality(ctx: VerifyContext):
    census = ctx.census(MM)
    small = nestgraph.minimality(MM, rel_generators=["rho", "mu(4,0)"], nest_census=census)
    full = nestgraph.minimality(MM, rel_generators=catalog.s_mm_generators(), nest_census=census)
    actual = {
        "group_order": small.group_order,
        "largest_orbit": small.largest_orbit,
        "complete": small.complete,
        "minimal": small.minimal,
        "full_group_order": full.group_order,
        "full_complete": full.complete,
        "full_minimal": full.minimal,
    }
    expected = {
        "group_order": 27_648,
        "largest_orbit": 27_648,
        "complete": True,
        "minimal": True,
        "full_group_order": 165_888,
        "full_complete": True,
        "full_minimal": False,
    }
    return expected, actual


def _check_sm_minimality(ctx: VerifyContext):
    report = nestgraph.minimality(
        SM, rel_generators=["(12)(45)(78)"], nest_census=ctx.census(SM)
    )
    actual = {
        "group_order": report.group_order,
        "is_18_72cubed": report.group_order == 18 * 72**3,
        "orbit_lcm": report.orbit_lcm,
        "complete": report.complete,
        "minimal": report.minimal,
    }
    expected = {
        "group_order": 6_718_464,
        "is_18_72cubed": True,
        "orbit_lcm": 6_718_464,
        "complete": True,
        "minimal": True,
    }
    return expected, actual


def _check_orbit_sizes(ctx: VerifyContext, variant: str, sizes: tuple[int, ...]):
    found = nestgraph.orbit_sizes(variant, nest_census=ctx.census(variant))
    spec = nests._VARIANTS[variant]
    full = catalog._physical_group(spec.physical).order * spec.relabelings().order
    actual = {
        "sizes": list(found),
        "divide_full_group": all(full % s == 0 for s in found),
    }
    expected = {"sizes": list(sizes), "divide_full_group": True}
    return expected, actual


def _check_keedwell_suite(ctx: VerifyContext):
    boards = {l: nests.representative(l) for l in nests.sm_labels()}
    degree = {l: linearity_degree(b) for l, b in boards.items()}
    decomposable = sum(keedwell_decompose(b) is not None for b in boards.values())

    graph = nestgraph.build_nest_graph(SM, ["(12)(45)(78)"])
    degrees_by_component = {
        str(len(comp)): sorted({degree[l] for l in comp})
        for comp in nestgraph.weak_components(graph)
    }

    dec71 = keedwell_decompose(boards[NestLabel(SM, 7, 1)])
    exponents_71 = {
        "c": [list(row) for row in dec71.exponents.c],
        "d": [list(row) for row in dec71.exponents.d],
    }

    gk_failures = 0
    for gen in catalog.g_k_generators():
        for label, board in boards.items():
            if linearity_degree(act(gen.symmetry, board)) != degree[label]:
                gk_failures += 1

    tau_failures = 0
    for blk in semi_magic_blocks():
        for a, b in ((0, 1), (0, 2), (1, 2)):
            tau = lambda x: swap_block_columns(x, a, b)
            if tau(apply_alpha(blk, 1)) != apply_alpha(tau(blk), 1):
                tau_failures += 1
            if tau(apply_beta(blk, 1)) != apply_beta(apply_beta(tau(blk), 1), 1):
                tau_failures += 1

    actual = {
        "decomposable": decomposable,
        "degrees_by_component": degrees_by_component,
        "board_71_exponents": exponents_71,
        "gk_degree_failures": gk_failures,
        "tau_identity_failures": tau_failures,
    }
    expected = {
        "decomposable": 16,
        "degrees_by_component": {"1": [2], "6": [1], "9": [0]},
        "board_71_exponents": {
            "c": [[0, 1, 2], [0, 2, 1], [0, 1, 2]],
            "d": [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
        },
        "gk_degree_failures": 0,
        "tau_identity_failures": 0,
    }
    return expected, actual


def _check_off_diagonal_sweep(ctx: VerifyContext):
    boards, failures = ctx.off_diagonal_sweep()
    actual = {
        "boards": boards,
        "failures": failures,
        "within_120s": ctx.enumeration_seconds(MM) < 120,
    }
    expected = {"boards": 32_256, "failures": 0, "within_120s": True}
    return expected, actual


def _check_g9_certificate(ctx: VerifyContext):
    t0 = time.perf_counter()
    cert = g9_minimality_certificate()
    elapsed = time.perf_counter() - t0
    actual = {
        "average_orbit_floor": cert.average_orbit_floor,
        "bound_holds": cert.bound_holds,
        "within_1s": elapsed < 1,
    }
    expected = {
        "average_orbit_floor": 1_218_935_174_261,
        "bound_holds": True,
        "within_1s": True,
    }
    return expected, actual


def _check_properties(ctx: VerifyContext, variant: str, seed_offset: int):
    rng = random.Random(DEFAULT_SEED + seed_offset)
    spec = nests._VARIANTS[variant]
    group = catalog._physical_group(spec.nest_generators)
    relabelings = spec.relabelings()
    split_failures = 0

    def draw_physical(r):
        nonlocal split_failures
        e, a, b, cells = group._decode(r.randrange(group.order))
        h = Symmetry.from_cell(cells.tolist())
        split_failures += catalog._split(h) != (e, *map(tuple, group._lines[[a, b]].tolist()))
        return h

    def draw_symmetry(r):
        kind = r.randrange(3)
        h = draw_physical(r)
        s = relabelings.element(r.randrange(relabelings.order))
        return h if kind == 0 else s if kind == 1 else compose(h, s)

    axiom_failures = 0
    invariance_failures = 0
    for _ in range(1000):
        board = _random_board(spec.catalog, rng)
        s1 = draw_symmetry(rng)
        s2 = draw_symmetry(rng)
        axiom_failures += act(identity(), board) != board
        axiom_failures += act(inverse(s1), act(s1, board)) != board
        axiom_failures += act(compose(s2, s1), board) != act(s2, act(s1, board))
        moved = act(draw_physical(rng), board)
        same = nests.canonicalize(variant, moved)[0] == nests.canonicalize(variant, board)[0]
        invariance_failures += not same

    actual = {
        "action_axiom_failures": axiom_failures,
        "label_invariance_failures": invariance_failures,
        "decoded_round_trip": split_failures == 0,
        "samples": 1000,
    }
    expected = {
        "action_axiom_failures": 0,
        "label_invariance_failures": 0,
        "decoded_round_trip": True,
        "samples": 1000,
    }
    return expected, actual


CHECKS: dict[str, Callable[[VerifyContext], tuple[object, object]]] = {
    "group_orders": _check_group_orders,
    "mm_enumeration": partial(_check_enumeration, variant=MM, count=32_256, within_s=60),
    "sm_blocks": partial(_check_timed_count, build=semi_magic_blocks, count=72),
    "sm_enumeration": partial(_check_enumeration, variant=SM, count=5_971_968, within_s=600),
    "gnomon_completions": partial(_check_timed_count, build=complete_standard_gnomon, count=16),
    "mm_census": _check_mm_census,
    "sm_census": _check_sm_census,
    "sm_crosscheck": _check_sm_crosscheck,
    "mm_nest_graph": _check_mm_nest_graph,
    "sm_nest_graphs": _check_sm_nest_graphs,
    "mm_minimality": _check_mm_minimality,
    "sm_minimality": _check_sm_minimality,
    "mm_orbit_sizes": partial(_check_orbit_sizes, variant=MM, sizes=(4608, 27_648)),
    "sm_orbit_sizes": partial(
        _check_orbit_sizes, variant=SM, sizes=(373_248, 2_239_488, 3_359_232)
    ),
    "keedwell_suite": _check_keedwell_suite,
    "off_diagonal_sweep": _check_off_diagonal_sweep,
    "g9_certificate": _check_g9_certificate,
    "mm_properties": partial(_check_properties, variant=MM, seed_offset=1),
    "sm_properties": partial(_check_properties, variant=SM, seed_offset=2),
}

#: Acceptance criterion number -> check names covering it.
CRITERIA: dict[int, tuple[str, ...]] = {
    1: ("group_orders",),
    2: ("mm_enumeration", "sm_blocks", "sm_enumeration", "gnomon_completions"),
    3: ("mm_census",),
    4: ("sm_census", "sm_crosscheck"),
    5: ("mm_nest_graph", "sm_nest_graphs"),
    6: ("mm_minimality", "sm_minimality"),
    7: ("mm_orbit_sizes", "sm_orbit_sizes"),
    8: ("keedwell_suite",),
    9: ("off_diagonal_sweep",),
    10: ("g9_certificate",),
    11: ("mm_properties", "sm_properties"),
}

#: Variant -> its checks: those named for it and the shared ones it needs, in CHECKS order.
VARIANT_CHECKS = {
    v: tuple(n for n in CHECKS if n.startswith(f"{v.lower()}_") or n in shared)
    for v, shared in (
        (MM, ("group_orders", "off_diagonal_sweep", "g9_certificate")),
        (SM, ("group_orders", "gnomon_completions", "keedwell_suite", "g9_certificate")),
    )
}


def run_checks(
    names: Iterable[str] | None = None,
    ctx: VerifyContext | None = None,
    threads: int = 1,
) -> VerifyReport:
    """Run the named checks (all by default) and collect a report."""
    selected = list(CHECKS) if names is None else list(names)
    if not selected:
        raise DomainError("no checks selected")
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise DomainError(f"unknown checks: {', '.join(unknown)}")
    if ctx is None:
        ctx = VerifyContext(threads=threads)
    results = []
    for name in selected:
        t0 = time.perf_counter()
        expected, actual = CHECKS[name](ctx)
        results.append(
            CheckResult(
                name=name,
                expected=expected,
                actual=actual,
                passed=expected == actual,
                seconds=time.perf_counter() - t0,
            )
        )
    return VerifyReport(tuple(results), all(r.passed for r in results))
