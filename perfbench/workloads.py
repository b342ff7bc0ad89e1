"""The benchmark's workloads, their inputs and their correctness gates.

Every workload runs in one process on one thread. Its set-up calls the
package's cached builders up front; its job is a sequence of passes of
equal size made from the seed, and a run executes passes until its time
is up. A pass is a list of units, and each unit returns an Outcome:
results checked, results failed, boards processed. A unit calls
tracer.lap() between its calls into the package: that ends a timed
step, which the run calibrates against the reference kernel of
clock.py. A result is failed whenever it differs from a value that
follows from the paper, so a faster wrong answer is never a gain.

Left out on purpose:
- `keedwell` takes microseconds in any real job.
- `cli` is a thin layer over the same calls; its `--threads` process
  pool needs more than one process, which a shared 2-core machine
  cannot time steadily.
- The full `magicsudoku verify` (about 190 s on 2 cores) and the tier-1
  test suite (about 380 s) are far too long to run some 20 times per
  comparison. Their expensive parts are covered piecewise here.
- The six modular-magic checks of `verify` as one job (about 50 s, the
  MM survey) would not fit the benchmark's time budget either. The
  MM survey's three costs (cell search, `_mm_reduce` through
  `canonicalize_mm`, `check_two_equal`) run here per first-two-digit
  slice instead, and the census-dependent nest-graph reports run on
  the published census.
- The scan oracle (`crosscheck_sm` on `random_semi_magic` boards) is
  not a workload. Its set-up (the 373,248-element `h_gamma` group, about
  7 s) is repeated five times in every run, which would push a fourth
  workload past the benchmark's time budget; and its throughput, bound
  by gathers from a 60 MB table, varied by more than 30% between runs
  before times were calibrated. The traced run still measures the scan,
  the crosscheck and the `h_gamma` group it needs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from magicsudoku import (
    Census,
    VerifyContext,
    build_nest_graph,
    canonicalize_mm,
    census,
    check_two_equal,
    enumerate_modular_magic,
    enumerate_semi_magic,
    h_gamma_group,
    h_mm_group,
    g_mm_group,
    minimality,
    mm_labels,
    orbit_sizes,
    read_mssb,
    run_checks,
    semi_magic_blocks,
    sm_labels,
    weak_components,
    write_mssb,
)
from magicsudoku.boards import iter_text, write_text

from tracing import Tracer

# --- values that follow from the paper ---

MM_TOTAL = 32_256
MM_SMALL_NESTS = ("[1,1]", "[2,2]", "[7,7]")  # 1,536 boards each; six others 4,608
SM_SLICE_TOTAL = 5_971_968 // 72  # boards per top-left block: 82,944
SM_SLICE_PER_NEST = SM_SLICE_TOTAL // 16  # every nest holds 373,248 / 72 = 5,184
MSSB_HEADER, MSSB_PER_BOARD, TEXT_PER_BOARD = 9, 41, 82

# Only 36 of the 72 ordered pairs (b0, b1) of leading digits occur in
# MM boards, and each first-two-digit slice holds 32,256 / 36 = 896 of
# them. The per-nest counts of each slice were computed once over the
# whole enumeration and are pinned in mm_slices.json; test_gate.py
# checks that they add up to the published census.
MM_SLICE_TOTAL = MM_TOTAL // 36
MM_SLICES: dict[str, dict[str, int]] = json.loads(
    (Path(__file__).parent / "mm_slices.json").read_text()
)

# Semi-magic top-left blocks whose rows are the sets {0,4,8}, {1,5,6},
# {2,3,7} are reduced directly; the other 36 are transposed first and
# cost more. Every seed draws half from each kind.
_DIRECT_ROWS = (frozenset((0, 4, 8)), frozenset((1, 5, 6)), frozenset((2, 3, 7)))


def sm_block_kinds() -> tuple[list[int], list[int]]:
    """(direct, transposed) top-left block indices of the 72-block catalog."""
    direct, transposed = [], []
    for i, blk in enumerate(semi_magic_blocks()):
        (direct if frozenset(blk[0]) in _DIRECT_ROWS else transposed).append(i)
    return direct, transposed


def stratified_slices(seed: int, per_kind: int) -> list[int]:
    """SM slice indices: per_kind direct and per_kind transposed, interleaved."""
    rng = random.Random(seed)
    direct, transposed = sm_block_kinds()
    pairs = zip(rng.sample(direct, per_kind), rng.sample(transposed, per_kind))
    return [i for pair in pairs for i in pair]


def published_mm_census() -> Census:
    counts = {
        label: 1536 if str(label) in MM_SMALL_NESTS else 4608 for label in mm_labels()
    }
    return Census("MM", counts, MM_TOTAL)


# --- outcomes and gates ---


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    boards: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(what)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.boards += other.boards
        self.errors = (self.errors + other.errors)[:5]


def gate_mm_slice(pair: str, total: int, labels: Counter, two_equal_failures: int) -> Outcome:
    """One MM slice is one result: its size, its nests and the
    off-diagonal structure of every board must match."""
    out = Outcome(attempted=1, boards=total)
    if total != MM_SLICE_TOTAL:
        out.fail(f"MM slice {pair}: {total} boards, expected {MM_SLICE_TOTAL}")
    elif dict(labels) != MM_SLICES[pair]:
        out.fail(f"MM slice {pair}: nest counts {dict(sorted(labels.items()))}")
    elif two_equal_failures:
        out.fail(f"MM slice {pair}: {two_equal_failures} boards fail check_two_equal")
    return out


def gate_sm_slice(index: int, result: Census, labels: set[str]) -> Outcome:
    """One SM slice is one result: 82,944 boards, 5,184 in each of the 16 nests."""
    out = Outcome(attempted=1, boards=result.total)
    counts = {str(k): v for k, v in result.counts.items()}
    if result.total != SM_SLICE_TOTAL:
        out.fail(f"SM slice {index}: {result.total} boards, expected {SM_SLICE_TOTAL}")
    elif set(counts) != labels or set(counts.values()) != {SM_SLICE_PER_NEST}:
        out.fail(f"SM slice {index}: nest counts {counts}")
    return out


def gate_expected(name: str, expected, actual) -> Outcome:
    out = Outcome(attempted=1)
    if expected != actual:
        out.fail(f"{name}: expected {expected!r}, got {actual!r}")
    return out


def gate_roundtrip(
    index: int, written: list, mssb: list, text: list, mssb_bytes: int, text_bytes: int
) -> Outcome:
    """Each board written is one result; it fails unless both formats
    read it back equal. Wrong sizes or counts fail the whole slice."""
    n = len(written)
    out = Outcome(attempted=SM_SLICE_TOTAL, boards=n)
    sizes = (mssb_bytes, text_bytes)
    if n != SM_SLICE_TOTAL or len(mssb) != n or len(text) != n:
        out.fail(f"SM slice {index}: {n} written, {len(mssb)}/{len(text)} read", out.attempted)
    elif sizes != (MSSB_HEADER + MSSB_PER_BOARD * n, TEXT_PER_BOARD * n):
        out.fail(f"SM slice {index}: file sizes {sizes}", out.attempted)
    else:
        bad = sum(a != b or a != c for a, b, c in zip(written, mssb, text))
        if bad:
            out.fail(f"SM slice {index}: {bad} boards changed in a round trip", bad)
    return out


def guarded(unit: Callable[[Tracer], Outcome], attempted: int, name: str):
    """A unit whose exception counts as failing all its results."""

    def run(tracer: Tracer) -> Outcome:
        try:
            return unit(tracer)
        except Exception:  # the run must go on and report the failure
            out = Outcome(attempted=attempted)
            out.fail(f"{name}: {traceback.format_exc(limit=3)}", attempted)
            return out

    return run


# --- set-up shared by the workloads ---


def rss_mib() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def setup_mm(tracer: Tracer) -> None:
    with tracer.span("catalog.h_mm_group"):
        h_mm_group()
    tracer.lap()
    with tracer.span("catalog.g_mm_group"):
        g_mm_group()
    tracer.lap()
    with tracer.span("nests.mm_labels"):
        mm_labels()


def setup_sm(tracer: Tracer) -> None:
    with tracer.span("enumeration.semi_magic_blocks"):
        semi_magic_blocks()
    with tracer.span("nests.sm_labels"):
        sm_labels()


def setup_h_gamma(tracer: Tracer) -> None:
    before = rss_mib()
    with tracer.span("catalog.h_gamma_group"):
        group = h_gamma_group()
    with tracer.span("perms.inverse_cell_images"):
        group.inverse_cell_images
    tracer.value("catalog.h_gamma_rss_mib", rss_mib() - before)


# --- units ---


def mm_slice_unit(pair: str):
    d0, d1 = int(pair[0]), int(pair[1])

    def unit(tracer: Tracer) -> Outcome:
        boards: list = []
        with tracer.span("enumeration.mm_visit") as s:
            s.items = enumerate_modular_magic(boards.append, (9 * d0 + d1, 81))
        tracer.lap()
        with tracer.span("nests.canonicalize_mm", len(boards)):
            labels = Counter(str(canonicalize_mm(b)[0]) for b in boards)
        tracer.lap()
        with tracer.span("analysis.check_two_equal", len(boards)):
            failures = sum(not check_two_equal(b) for b in boards)
        return gate_mm_slice(pair, len(boards), labels, failures)

    return guarded(unit, 1, f"MM slice {pair}")


MM_CHECKS = ("mm_nest_graph", "g9_certificate")
MM_REPORT_RESULTS = len(MM_CHECKS) + 3  # plus components, minimality, orbit sizes


def mm_reports_unit(tracer: Tracer) -> Outcome:
    """The MM checks that need no survey, then the nest-graph reports of
    the census-dependent checks fed the published census."""
    out = Outcome(attempted=0)
    add = out.add
    with tracer.span("verification.run_checks", len(MM_CHECKS)):
        report = run_checks(MM_CHECKS, ctx=VerifyContext(threads=1))
    for check in report.checks:
        tracer.value(f"verification.{check.name}_s", check.seconds)
        add(gate_expected(check.name, check.expected, check.actual))
    tracer.lap()
    published = published_mm_census()
    with tracer.span("nestgraph.build_nest_graph"):
        comps = weak_components(build_nest_graph("MM", ["rho", "mu(4,0)"]))
    add(gate_expected("nest graph components", [3, 6], [len(c) for c in comps]))
    tracer.lap()
    with tracer.span("nestgraph.minimality", 2):
        small = minimality("MM", h_mm_group(), ["rho", "mu(4,0)"], published)
        full = minimality("MM", h_mm_group(), ["rho", "mu(4,0)", "mu(5,3)", "mu(5,6)"], published)
    add(
        gate_expected(
            "minimality",
            (27_648, 27_648, True, True, 165_888, True, False),
            (small.group_order, small.largest_orbit, small.complete, small.minimal,
             full.group_order, full.complete, full.minimal),
        )
    )
    tracer.lap()
    with tracer.span("nestgraph.orbit_sizes"):
        sizes = orbit_sizes("MM", nest_census=published)
    add(gate_expected("orbit sizes", (4608, 27_648), sizes))
    return out


def sm_census_unit(index: int):
    def unit(tracer: Tracer) -> Outcome:
        labels = {str(l) for l in sm_labels()}
        with tracer.span("nests.census_sm") as s:
            result = census("SM", partition=(index, 72))
            s.items = result.total
        return gate_sm_slice(index, result, labels)

    return guarded(unit, 1, f"SM slice {index}")


def roundtrip_files(tracer: Tracer, boards: list, prefix: str):
    """Write the boards to MSSB and text files and read both back;
    returns (mssb boards, text boards, mssb bytes, text bytes)."""
    n = len(boards)
    mssb_path, text_path = prefix + ".mssb", prefix + ".txt"
    with tracer.span("boards.write_mssb", n), open(mssb_path, "wb") as fh:
        write_mssb(fh, boards)
    tracer.lap()
    with tracer.span("boards.read_mssb", n), open(mssb_path, "rb") as fh:
        mssb = read_mssb(fh)
    tracer.lap()
    with tracer.span("boards.write_text", n), open(text_path, "w") as fh:
        write_text(fh, boards)
    tracer.lap()
    with tracer.span("boards.iter_text", n), open(text_path) as fh:
        text = list(iter_text(fh))
    tracer.lap()
    mssb_bytes = os.path.getsize(mssb_path)
    text_bytes = os.path.getsize(text_path)
    tracer.value("boards.mssb_bytes_per_board", (mssb_bytes - MSSB_HEADER) / max(n, 1))
    tracer.value("boards.text_bytes_per_board", text_bytes / max(n, 1))
    return mssb, text, mssb_bytes, text_bytes


def roundtrip_unit(index: int, tmpdir: str):
    def unit(tracer: Tracer) -> Outcome:
        boards: list = []
        with tracer.span("enumeration.sm_visit") as s:
            s.items = enumerate_semi_magic(boards.append, (index, 72))
        tracer.lap()
        read_back = roundtrip_files(tracer, boards, os.path.join(tmpdir, "slice"))
        return gate_roundtrip(index, boards, *read_back)

    return guarded(unit, SM_SLICE_TOTAL, f"SM round trip {index}")


# --- the workloads ---


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[Tracer], None]
    # (seed, scratch directory) -> (the job's passes, one pass's size)
    job: Callable[[int, str], tuple[Iterator[list], dict]]


# One pass of each job. A run repeats passes until its time is up, so
# it records several pass times and reports their median.
MM_SLICES_PER_PASS = 4
SM_SLICES_PER_PASS = 2  # one reduced directly, one transposed
ROUNDTRIP_SLICES_PER_PASS = 1


def _chunks(items: list, size: int) -> Iterator[list]:
    return itertools.cycle([items[i : i + size] for i in range(0, len(items), size)])


def _mm_job(seed: int, tmpdir: str):
    order = random.Random(seed).sample(sorted(MM_SLICES), len(MM_SLICES))
    reports = guarded(mm_reports_unit, MM_REPORT_RESULTS, "MM reports")
    passes = (
        [mm_slice_unit(p) for p in pairs] + [reports]
        for pairs in _chunks(order, MM_SLICES_PER_PASS)
    )
    return passes, {
        "slices": MM_SLICES_PER_PASS,
        "boards": MM_SLICE_TOTAL * MM_SLICES_PER_PASS,
        "reports": MM_REPORT_RESULTS,
        "first_slices": order[:MM_SLICES_PER_PASS],
    }


def _sm_job(seed: int, tmpdir: str):
    order = stratified_slices(seed, 36)
    passes = ([sm_census_unit(i) for i in c] for c in _chunks(order, SM_SLICES_PER_PASS))
    return passes, {
        "slices": SM_SLICES_PER_PASS,
        "boards": SM_SLICE_TOTAL * SM_SLICES_PER_PASS,
        "first_slices": order[:SM_SLICES_PER_PASS],
    }


def _roundtrip_job(seed: int, tmpdir: str):
    order = stratified_slices(seed, 36)
    passes = (
        [roundtrip_unit(i, tmpdir) for i in c]
        for c in _chunks(order, ROUNDTRIP_SLICES_PER_PASS)
    )
    return passes, {
        "slices": ROUNDTRIP_SLICES_PER_PASS,
        "boards": SM_SLICE_TOTAL * ROUNDTRIP_SLICES_PER_PASS,
        "first_slices": order[:ROUNDTRIP_SLICES_PER_PASS],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mm-slices",
            "MM cell search, _mm_reduce and check_two_equal per board, plus the nest-graph "
            "reports: where the block-join engine and MM batch canonicalization must show",
            setup_mm,
            _mm_job,
        ),
        Workload(
            "sm-slices",
            "SM bitmask join, a Board per board and the constructive label, no group scan: "
            "where the SM batch census must show",
            setup_sm,
            _sm_job,
        ),
        Workload(
            "sm-roundtrip",
            "materializes every Board of SM slices through MSSB and text files: must not slow "
            "down when the census drops Boards or MSSB is reworked",
            setup_sm,
            _roundtrip_job,
        ),
    )
}

