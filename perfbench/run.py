"""Benchmark of the magicsudoku package, run from the root of a checkout:

    python3 perfbench/run.py --workload sm-slices --seed 1 --seconds 25 --trace 0

It imports the package from ./src (nothing is installed or built),
sets up the workload, then repeats the workload's seeded job on one
thread until --seconds have passed, checking every result against
values that follow from the paper. Times are calibrated seconds (see
clock.py): wall time scaled by the speed of a reference kernel timed
around every step, because a shared host's speed drifts. The last line
of stdout is one JSON object: correct, attempted, failed and the
metrics. The line before it is a report with the provenance, the seed,
the workload's size, the raw and calibrated pass times, the error rate
and the first errors.

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end").
--trace 1 alternates traced and untraced passes, fills in the layers
the job did not touch with small probes, reports the per-layer metrics
and the tracing overhead, and writes every span to
.perfbench/trace-<workload>-<seed>.json.

Exit codes: 0 all results correct, 1 some result wrong, 2 bad usage or
no package source in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

SETUP_REPEATS = 5  # set-ups per run, this process included; setup_s is their median
ROOT = Path.cwd()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import magicsudoku from ./src; None when the checkout has no source."""
    src = ROOT / "src"
    if not (src / "magicsudoku" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import magicsudoku

    if Path(magicsudoku.__file__).resolve().parent != (src / "magicsudoku").resolve():
        return None
    return magicsudoku


def child_setup_seconds(args) -> dict:
    """Set-up time of a fresh process, import plus the workload's
    builders: {"setup_s": calibrated, "setup_raw_s": wall}."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    seconds: float  # calibrated
    raw_seconds: float
    traced: bool
    outcome: object  # workloads.Outcome summed over the pass's units


def run_passes(job, tracer, seconds: float, alternate: bool) -> list[Pass]:
    """Run the job's passes until `seconds` have passed. With `alternate`,
    even passes are traced and odd ones not, and at least one of each
    runs. A pass's time is the sum of its steps on the tracer's clock."""
    from workloads import Outcome

    passes = []
    clock = tracer.clock
    start = time.perf_counter()
    for units in job:
        traced = alternate and len(passes) % 2 == 0
        tracer.enabled = traced
        outcome = Outcome(attempted=0)
        clock.start()
        with tracer.span("job"):
            for unit in units:
                outcome.add(unit(tracer))
                tracer.lap()
        passes.append(Pass(clock.calibrated, clock.raw, traced, outcome))
        if time.perf_counter() - start >= seconds and (not alternate or len(passes) >= 2):
            break
    tracer.enabled = alternate
    return passes


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(pkg) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "magicsudoku": pkg.__version__,
        "git_rev": git_rev(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind normally: the scratch directory is removed and a
    # running set-up child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from clock import Clock

    clock = Clock()  # the set-up's first step, the import, starts here
    pkg = import_package()
    if pkg is None:
        print(f"perfbench: no magicsudoku source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        names = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r} (one of {names})", file=sys.stderr)
        return 2

    tracer = Tracer(enabled=bool(args.trace), clock=clock)
    tracer.lap()  # after the import
    with tracer.span("setup"):
        workload.setup(tracer)
    clock.lap()
    setup_own = {"setup_s": clock.calibrated, "setup_raw_s": clock.raw}
    if args.setup_only:
        print(json.dumps(setup_own))
        return 0

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        job, sizes = workload.job(args.seed, tmp)
        passes = run_passes(job, tracer, args.seconds, alternate=bool(args.trace))
        probed = layers.fill_gaps(tracer, args.seed, tmp) if args.trace else []

    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    errors = [e for p in passes for e in p.outcome.errors][:5]
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size_per_pass": sizes,
        "pass_s": [p.seconds for p in passes],
        "pass_raw_s": [p.raw_seconds for p in passes],
        "reference_s": statistics.median(clock.references),
        "error_rate": failed / attempted,
        "errors": errors,
        "provenance": provenance(pkg),
    }
    if args.trace:
        traced = [p.seconds for p in passes if p.traced]
        plain = [p.seconds for p in passes if not p.traced]
        metrics = layers.read_metrics(tracer)
        overhead = statistics.median(traced) / statistics.median(plain) - 1
        metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
        metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
        report["self_s"] = tracer.self_times("job")
        report["probed"] = probed
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-{args.seed}.json"
        tracer.dump(trace_path, report)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        setups = [setup_own] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(s["setup_s"] for s in setups)
        pass_s = [p.seconds for p in passes]
        metrics = {
            "total_s": {"value": setup_s + statistics.median(pass_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "boards_per_s": {
                "value": statistics.median(p.outcome.boards / p.seconds for p in passes),
                "unit": "boards/s",
            },
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
        report["setups_s"] = [s["setup_s"] for s in setups]
        report["setups_raw_s"] = [s["setup_raw_s"] for s in setups]
    report["metrics"] = metrics
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
