"""Tests of the benchmark itself: its pinned values, its seeded draws
and its correctness gate. Run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from magicsudoku import Census, sm_labels  # noqa: E402


def test_mm_slice_table_sums_to_published_census():
    total = Counter()
    for pair, counts in wl.MM_SLICES.items():
        assert sum(counts.values()) == wl.MM_SLICE_TOTAL, pair
        total.update(counts)
    assert len(wl.MM_SLICES) == 36
    assert sum(total.values()) == wl.MM_TOTAL
    assert sorted(total.values()) == [1536] * 3 + [4608] * 6
    assert {k for k, v in total.items() if v == 1536} == set(wl.MM_SMALL_NESTS)


def test_stratified_draw_is_seeded_and_balanced():
    direct, transposed = wl.sm_block_kinds()
    assert len(direct) == len(transposed) == 36
    draw = wl.stratified_slices(7, 2)
    assert draw == wl.stratified_slices(7, 2)
    assert draw != wl.stratified_slices(8, 2)
    assert [i in direct for i in draw] == [True, False, True, False]


def _sm_census(total_delta=0, nest_delta=0):
    labels = sm_labels()
    counts = {label: wl.SM_SLICE_PER_NEST for label in labels}
    counts[labels[0]] += nest_delta
    return Census("SM", counts, wl.SM_SLICE_TOTAL + total_delta)


def test_gate_rejects_wrong_counts():
    names = {str(l) for l in sm_labels()}
    assert wl.gate_sm_slice(0, _sm_census(), names).failed == 0
    assert wl.gate_sm_slice(0, _sm_census(total_delta=1), names).failed == 1
    assert wl.gate_sm_slice(0, _sm_census(nest_delta=1), names).failed == 1
    pair = sorted(wl.MM_SLICES)[0]
    good = Counter(wl.MM_SLICES[pair])
    assert wl.gate_mm_slice(pair, wl.MM_SLICE_TOTAL, good, 0).failed == 0
    assert wl.gate_mm_slice(pair, wl.MM_SLICE_TOTAL - 1, good, 0).failed == 1
    assert wl.gate_mm_slice(pair, wl.MM_SLICE_TOTAL, good, 1).failed == 1
    boards = [object()] * wl.SM_SLICE_TOTAL
    n = len(boards)
    sizes = (wl.MSSB_HEADER + wl.MSSB_PER_BOARD * n, wl.TEXT_PER_BOARD * n)
    assert wl.gate_roundtrip(0, boards, boards, boards, *sizes).failed == 0
    assert wl.gate_roundtrip(0, boards, boards, boards, sizes[0] + 1, sizes[1]).failed == n


def test_wrong_count_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl, "census", lambda variant, partition: _sm_census(total_delta=-1))
    code = run.main(["--workload", "sm-slices", "--seed", "1", "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sm-slices",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_benchmark_json_matches_the_code():
    import layers

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [m[0] for m in layers.METRICS] + ["trace.overhead_pct", "trace.spans"]


def test_clock_scales_steps_by_the_reference_kernel(monkeypatch):
    import clock

    samples = iter([2 * clock.REFERENCE_S, clock.REFERENCE_S])
    monkeypatch.setattr(clock, "reference_tables", lambda: ())
    monkeypatch.setattr(clock, "reference_kernel", lambda: 0)
    monkeypatch.setattr(clock, "reference_seconds", lambda tables: next(samples))
    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0])
    monkeypatch.setattr(clock, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    c = clock.Clock()
    c.lap()  # a 1 s step at half speed, calibrated on its one side
    c.lap()  # a 2 s step, kernel at 2x and 1x reference on its two sides
    assert c.raw == 3.0
    assert c.calibrated == 0.5 + 2 * 2 / 3
