"""Per-layer metrics of the traced run.

Each metric is read from the spans (or recorded values) of given names.
A workload's own job and set-up record most of the spans it touches;
after the job, a small seeded probe records every span still missing,
so every traced run reports every metric. `moves` names the end-to-end
metric and workload each one should move.
"""

from __future__ import annotations

import os
import random
import tempfile

from magicsudoku import (
    canonicalize_mm,
    canonicalize_sm,
    census,
    check_two_equal,
    enumerate_modular_magic,
    enumerate_semi_magic,
    is_modular_magic,
    is_semi_magic,
    random_semi_magic,
    sm_labels,
)
from magicsudoku.nests import canonicalize_sm_by_scan, crosscheck_sm

import workloads as wl
from tracing import Tracer

# name, unit, source spans or value, how to read them, what it moves
PER_ITEM, TOTAL, VALUE = "per_item", "total", "value"
METRICS = (
    ("enumeration.mm_count_us", "us", ("enumeration.mm_count",), PER_ITEM, "mm-slices total_s"),
    ("enumeration.mm_visit_us", "us", ("enumeration.mm_visit",), PER_ITEM, "mm-slices total_s"),
    ("enumeration.sm_count_us", "us", ("enumeration.sm_count",), PER_ITEM, "sm-slices boards_per_s"),
    ("enumeration.sm_visit_us", "us", ("enumeration.sm_visit",), PER_ITEM, "sm-slices, sm-roundtrip boards_per_s"),
    ("enumeration.random_sm_us", "us", ("enumeration.random_semi_magic",), PER_ITEM, "verify sm_crosscheck (not a workload)"),
    ("nests.canonicalize_mm_us", "us", ("nests.canonicalize_mm",), PER_ITEM, "mm-slices total_s"),
    ("nests.canonicalize_sm_us", "us", ("nests.canonicalize_sm",), PER_ITEM, "sm-slices boards_per_s"),
    ("nests.census_sm_us", "us", ("nests.census_sm",), PER_ITEM, "sm-slices boards_per_s"),
    ("nests.scan_sm_us", "us", ("nests.scan_sm",), PER_ITEM, "verify sm_crosscheck (not a workload)"),
    ("nests.crosscheck_sm_us", "us", ("nests.crosscheck_sm",), PER_ITEM, "verify sm_crosscheck (not a workload)"),
    ("nests.labels_s", "s", ("nests.mm_labels", "nests.sm_labels"), TOTAL, "setup_s"),
    ("analysis.check_two_equal_us", "us", ("analysis.check_two_equal",), PER_ITEM, "mm-slices total_s"),
    ("boards.is_modular_magic_us", "us", ("boards.is_modular_magic",), PER_ITEM, "mm-slices total_s"),
    ("boards.is_semi_magic_us", "us", ("boards.is_semi_magic",), PER_ITEM, "verify sm_crosscheck (not a workload)"),
    ("boards.write_mssb_us", "us", ("boards.write_mssb",), PER_ITEM, "sm-roundtrip boards_per_s"),
    ("boards.read_mssb_us", "us", ("boards.read_mssb",), PER_ITEM, "sm-roundtrip boards_per_s, peak_rss_mib"),
    ("boards.write_text_us", "us", ("boards.write_text",), PER_ITEM, "sm-roundtrip boards_per_s"),
    ("boards.iter_text_us", "us", ("boards.iter_text",), PER_ITEM, "sm-roundtrip boards_per_s"),
    ("boards.mssb_bytes_per_board", "B", ("boards.mssb_bytes_per_board",), VALUE, "sm-roundtrip boards_per_s"),
    ("boards.text_bytes_per_board", "B", ("boards.text_bytes_per_board",), VALUE, "sm-roundtrip boards_per_s"),
    ("catalog.h_mm_group_s", "s", ("catalog.h_mm_group",), TOTAL, "mm-slices setup_s"),
    ("catalog.g_mm_group_s", "s", ("catalog.g_mm_group",), TOTAL, "mm-slices setup_s"),
    ("catalog.h_gamma_group_s", "s", ("catalog.h_gamma_group",), TOTAL, "verify group_orders, sm_crosscheck (not workloads)"),
    ("perms.inverse_cell_images_s", "s", ("perms.inverse_cell_images",), TOTAL, "verify group_orders, sm_crosscheck (not workloads)"),
    ("catalog.h_gamma_rss_mib", "MiB", ("catalog.h_gamma_rss_mib",), VALUE, "verify peak RSS (not a workload)"),
    ("nestgraph.build_nest_graph_s", "s", ("nestgraph.build_nest_graph",), TOTAL, "mm-slices total_s"),
    ("nestgraph.minimality_s", "s", ("nestgraph.minimality",), TOTAL, "mm-slices total_s"),
    ("nestgraph.orbit_sizes_s", "s", ("nestgraph.orbit_sizes",), TOTAL, "mm-slices total_s"),
    ("verification.mm_nest_graph_s", "s", ("verification.mm_nest_graph_s",), VALUE, "mm-slices total_s"),
    ("verification.g9_certificate_s", "s", ("verification.g9_certificate_s",), VALUE, "mm-slices total_s"),
)

PROBE_MM_BOARDS = 200
PROBE_SM_BOARDS = 5_000
PROBE_ORACLE_BOARDS = 100
PROBE_RANDOM_BOARDS = 1_000


class ProbeInputs:
    """Seeded boards for the probes, built on first use and untimed."""

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        pair = random.Random(seed).choice(sorted(wl.MM_SLICES))
        self.mm_partition = (9 * int(pair[0]) + int(pair[1]), 81)
        self.sm_partition = (wl.stratified_slices(seed, 1)[0], 72)
        self._mm = self._sm = None

    def mm_boards(self) -> list:
        if self._mm is None:
            self._mm = []
            enumerate_modular_magic(self._mm.append, self.mm_partition)
        return self._mm

    def sm_boards(self) -> list:
        if self._sm is None:
            self._sm = []
            enumerate_semi_magic(self._sm.append, self.sm_partition)
        return self._sm

    def random_sm(self, n: int) -> list:
        rng = random.Random(self.seed)
        return [random_semi_magic(rng) for _ in range(n)]


def _batch(tracer: Tracer, name: str, fn, boards: list) -> None:
    with tracer.span(name, len(boards)):
        for b in boards:
            fn(b)


def _enumerate(name: str, fn, visitor, partition: str):
    """Probe timing one enumeration slice; visitor None counts only."""

    def probe(t: Tracer, p: ProbeInputs) -> None:
        with t.span(name) as s:
            s.items = fn(visitor, getattr(p, partition))

    return probe


def _census_sm(t: Tracer, p: ProbeInputs) -> None:
    with t.span("nests.census_sm") as s:
        s.items = census("SM", partition=p.sm_partition).total


def _random_sm(t: Tracer, p: ProbeInputs) -> None:
    with t.span("enumeration.random_semi_magic", PROBE_RANDOM_BOARDS):
        p.random_sm(PROBE_RANDOM_BOARDS)


def _no_op(board) -> None:
    pass


def _sm_labels(t: Tracer, p: ProbeInputs) -> None:
    with t.span("nests.sm_labels"):
        sm_labels()


def _roundtrip(t: Tracer, p: ProbeInputs) -> None:
    boards = p.sm_boards()[:PROBE_SM_BOARDS]
    with tempfile.TemporaryDirectory(dir=p.tmpdir) as tmp:
        wl.roundtrip_files(t, boards, os.path.join(tmp, "probe"))


def _reports(t: Tracer, p: ProbeInputs) -> None:
    wl.mm_reports_unit(t)


# Spans a probe records -> the probe. Builders come first, so that each
# is timed on its first call rather than inside a later probe.
PROBES = (
    (("catalog.h_mm_group", "catalog.g_mm_group", "nests.mm_labels"),
     lambda t, p: wl.setup_mm(t)),
    (("catalog.h_gamma_group", "perms.inverse_cell_images", "catalog.h_gamma_rss_mib"),
     lambda t, p: wl.setup_h_gamma(t)),
    (("nests.sm_labels",), _sm_labels),
    (("enumeration.mm_count",),
     _enumerate("enumeration.mm_count", enumerate_modular_magic, None, "mm_partition")),
    (("enumeration.mm_visit",),
     _enumerate("enumeration.mm_visit", enumerate_modular_magic, _no_op, "mm_partition")),
    (("enumeration.sm_count",),
     _enumerate("enumeration.sm_count", enumerate_semi_magic, None, "sm_partition")),
    (("enumeration.sm_visit",),
     _enumerate("enumeration.sm_visit", enumerate_semi_magic, _no_op, "sm_partition")),
    (("enumeration.random_semi_magic",), _random_sm),
    (("nests.canonicalize_mm",),
     lambda t, p: _batch(t, "nests.canonicalize_mm", canonicalize_mm, p.mm_boards()[:PROBE_MM_BOARDS])),
    (("analysis.check_two_equal",),
     lambda t, p: _batch(t, "analysis.check_two_equal", check_two_equal, p.mm_boards()[:PROBE_MM_BOARDS])),
    (("boards.is_modular_magic",),
     lambda t, p: _batch(t, "boards.is_modular_magic", is_modular_magic, p.mm_boards())),
    (("nests.canonicalize_sm",),
     lambda t, p: _batch(t, "nests.canonicalize_sm", canonicalize_sm, p.sm_boards()[:PROBE_SM_BOARDS])),
    (("boards.is_semi_magic",),
     lambda t, p: _batch(t, "boards.is_semi_magic", is_semi_magic, p.sm_boards()[:PROBE_SM_BOARDS])),
    (("nests.census_sm",), _census_sm),
    (("nests.scan_sm",),
     lambda t, p: _batch(t, "nests.scan_sm", canonicalize_sm_by_scan, p.random_sm(PROBE_ORACLE_BOARDS))),
    (("nests.crosscheck_sm",),
     lambda t, p: _batch(t, "nests.crosscheck_sm", crosscheck_sm, p.random_sm(PROBE_ORACLE_BOARDS))),
    (("boards.write_mssb", "boards.read_mssb", "boards.write_text", "boards.iter_text",
      "boards.mssb_bytes_per_board", "boards.text_bytes_per_board"), _roundtrip),
    (("nestgraph.build_nest_graph", "nestgraph.minimality", "nestgraph.orbit_sizes",
      "verification.mm_nest_graph_s", "verification.g9_certificate_s"), _reports),
)


def fill_gaps(tracer: Tracer, seed: int, tmpdir: str) -> list[str]:
    """Run the probe for every span the job did not record; returns the
    names probed."""
    inputs = ProbeInputs(seed, tmpdir)
    probed = []
    with tracer.span("probes"):
        for names, probe in PROBES:
            missing = [n for n in names if not tracer.has(n)]
            if missing:
                probe(tracer, inputs)
                probed += missing
    return probed


def read_metrics(tracer: Tracer) -> dict[str, dict]:
    out = {}
    for name, unit, sources, how, _ in METRICS:
        if how == VALUE:
            value = tracer.values[sources[0]]
        else:
            secs = items = 0
            for src in sources:
                s, n = tracer.total(src)
                secs += s
                items += n
            value = secs * 1e6 / items if how == PER_ITEM else secs
        out[name] = {"value": value, "unit": unit}
    return out
