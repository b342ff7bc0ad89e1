"""Command-line front end.

Subcommands: enumerate, census, nest-graph, keedwell, minimality-g9,
verify. Exit codes: 0 success, 1 check or integrity failure or a stdout
closed early, 2 usage error. Worker count comes from --threads, else the
MSS_THREADS environment variable, else the available parallelism; board
streams written with --out are always produced sequentially so their
order is reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from functools import partial
from typing import Sequence

from . import boards as boards_mod
from . import nestgraph, nests, verification
from .analysis import g9_minimality_certificate
from .boards import parse_board
from .enumeration import (
    _map_partitions,
    enumerate_modular_magic,
    enumerate_semi_magic,
    iter_modular_magic,
    iter_semi_magic,
)
from .errors import (
    BoardFormatError,
    DigitError,
    DomainError,
    MagicSudokuError,
)
from .keedwell import keedwell_decompose, linearity_degree
from .nests import MM, normalize_variant

__all__ = ["run", "main", "build_parser"]

_VARIANT_CHOICES = tuple(spec.name for spec in nests._VARIANTS.values())


def _resolve_threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise DomainError(f"bad thread count {args.threads}")
        return args.threads
    env = os.environ.get("MSS_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise DomainError(f"bad MSS_THREADS value {env!r}")
    return threads


def _check_output_paths(args: argparse.Namespace) -> None:
    """Refuse, before any work, an output file that cannot be created:
    a directory, or a path whose parent directory is missing."""
    for option in ("json", "out", "dot", "report"):
        path = getattr(args, option, None)
        if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
            raise DomainError(f"cannot write --{option} {path}")


def _emit_json(args: argparse.Namespace, payload: object) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    elif not args.quiet:
        sys.stdout.write(text)


def _split_tokens(text: str) -> list[str]:
    """Split a comma-separated token list at the commas outside
    parentheses, so mu(4,0) stays one token."""
    return [t.strip() for t in re.split(r",(?![^(]*\))", text) if t.strip()]


# --- subcommand handlers ---


def _cmd_enumerate(args: argparse.Namespace) -> int:
    variant = normalize_variant(args.variant)
    threads = _resolve_threads(args)
    if args.count_only:
        enumerate_fn = enumerate_modular_magic if variant == MM else enumerate_semi_magic
        count = sum(_map_partitions(partial(enumerate_fn, None), threads))
        if not (args.json or args.quiet):
            print(count)
    elif not args.out and (args.format == "binary" or args.quiet):
        raise DomainError(f"{'--quiet' if args.quiet else 'binary output'} requires --out FILE")
    else:
        stream = iter_modular_magic() if variant == MM else iter_semi_magic()
        if args.out:
            binary = args.format == "binary"
            with open(args.out, "wb" if binary else "w") as fh:
                count = (boards_mod.write_mssb if binary else boards_mod.write_text)(fh, stream)
            if not args.quiet:
                print(f"{count} boards written to {args.out}")
        else:
            count = boards_mod.write_text(sys.stdout, stream)
    if args.json:
        _emit_json(args, {"variant": args.variant, "count": count})
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    result = nests._threaded_census(args.variant, _resolve_threads(args))
    payload = {
        "variant": args.variant,
        "total": result.total,
        "nests": [{"label": str(l), "count": n} for l, n in result.counts.items()],
    }
    _emit_json(args, payload)
    return 0


def _cmd_nest_graph(args: argparse.Namespace) -> int:
    variant = normalize_variant(args.variant)
    phys = None if args.physical is None else _split_tokens(args.physical)
    graph = nestgraph.build_nest_graph(variant, _split_tokens(args.relabelings), phys)
    dot = nestgraph.to_dot(graph)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    elif not args.quiet:
        sys.stdout.write(dot)
    components = nestgraph.weak_components(graph)
    report = {
        "variant": args.variant,
        "vertices": [str(v) for v in graph.vertices],
        "edges": [
            {"from": str(src), "to": str(dst), "generator": name}
            for src, dst, name in graph.edges
        ],
        "components": [[str(v) for v in comp] for comp in components],
        "component_count": len(components),
    }
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    if args.json:
        _emit_json(args, report)
    return 0


def _cmd_keedwell(args: argparse.Namespace) -> int:
    board = parse_board(args.board)
    dec = keedwell_decompose(board)
    if dec is None:
        payload = {"keedwell": False, "c": None, "d": None, "degree": None}
    else:
        payload = {
            "keedwell": True,
            "c": [list(row) for row in dec.exponents.c],
            "d": [list(row) for row in dec.exponents.d],
            "degree": linearity_degree(board),
        }
    _emit_json(args, payload)
    return 0


def _cmd_minimality_g9(args: argparse.Namespace) -> int:
    given = dict(total_boards=args.total, orbit_count=args.orbits, group_order=args.group_order)
    cert = g9_minimality_certificate(**{k: v for k, v in given.items() if v is not None})
    _emit_json(args, dataclasses.asdict(cert))
    return 0 if cert.bound_holds else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    threads = _resolve_threads(args)
    if args.checks is not None:
        names = _split_tokens(args.checks)
    elif args.variant:
        names = list(verification.VARIANT_CHECKS[normalize_variant(args.variant)])
    else:
        names = None
    report = verification.run_checks(names, threads=threads)
    if not args.quiet:
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{check.name}: {status} ({check.seconds:.2f}s)")
        print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    if args.json:
        _emit_json(args, report.to_dict())
    return 0 if report.overall else 1


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=None, help="worker count")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")
    common.add_argument("--json", metavar="FILE", default=None, help="write JSON here")

    parser = argparse.ArgumentParser(
        prog="magicsudoku",
        description="Enumerate, canonicalize, and certify magic Sudoku variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="enumerate all boards")
    p.add_argument("--variant", choices=_VARIANT_CHOICES, required=True)
    sink = p.add_mutually_exclusive_group()  # counting writes no file: exits 2
    sink.add_argument("--out", metavar="FILE", default=None)
    sink.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("census", parents=[common], help="count boards per nest")
    p.add_argument("--variant", choices=_VARIANT_CHOICES, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("nest-graph", parents=[common], help="build a nest graph")
    p.add_argument("--variant", choices=_VARIANT_CHOICES, required=True)
    p.add_argument("--relabelings", default="", help="comma-separated generators")
    p.add_argument("--physical", default=None, help="extra physical generators")
    p.add_argument("--dot", metavar="FILE", default=None)
    p.add_argument("--report", metavar="FILE", default=None)
    p.set_defaults(func=_cmd_nest_graph)

    p = sub.add_parser("keedwell", parents=[common], help="decompose a board")
    p.add_argument("--board", required=True, metavar="DIGITS81")
    p.set_defaults(func=_cmd_keedwell)

    p = sub.add_parser(
        "minimality-g9", parents=[common], help="average-orbit certificate"
    )
    p.add_argument("--total", type=int, default=None)
    p.add_argument("--orbits", type=int, default=None)
    p.add_argument("--group-order", type=int, default=None)
    p.set_defaults(func=_cmd_minimality_g9)

    p = sub.add_parser("verify", parents=[common], help="run published-value checks")
    only = p.add_mutually_exclusive_group()  # a conflicting selection exits 2
    only.add_argument("--all", action="store_true", help="run every check (default)")
    only.add_argument("--variant", choices=_VARIANT_CHOICES, default=None)
    only.add_argument("--checks", default=None, help="comma-separated check names")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        _check_output_paths(args)
        return args.func(args)
    except (DomainError, BoardFormatError, DigitError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MagicSudokuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a reader gone early raises here, inside the try
    except BrokenPipeError:
        # As the signal module's docs advise: the flush at exit then cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
