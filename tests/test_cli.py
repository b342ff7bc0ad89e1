"""End-to-end command line behavior: exit codes, JSON payloads, files."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magicsudoku
from magicsudoku import cli
from magicsudoku.boards import format_board, read_mssb
from magicsudoku.enumeration import iter_modular_magic
from magicsudoku.cli import run

from conftest import CANON_SM_71


def test_no_arguments_is_a_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0
    assert "enumerate" in capsys.readouterr().out


def test_enumerate_requires_variant(capsys):
    assert run(["enumerate"]) == 2
    capsys.readouterr()


def test_enumerate_count_only_stdout(capsys):
    assert run(["enumerate", "--variant", "semi-magic", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "5971968"


def test_enumerate_count_only_quiet_json(capsys, tmp_path):
    out = tmp_path / "count.json"
    code = run(
        [
            "enumerate",
            "--variant",
            "semi-magic",
            "--count-only",
            "--threads",
            "2",
            "--quiet",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == {"variant": "semi-magic", "count": 5971968}


def test_enumerate_binary_requires_out(capsys, monkeypatch):
    def enumerator_called():
        raise AssertionError("enumerated boards before rejecting the flags")

    monkeypatch.setattr(cli, "iter_modular_magic", enumerator_called)
    assert run(["enumerate", "--variant", "modular-magic", "--format", "binary"]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.out + captured.err


def test_enumerate_quiet_requires_out(capsys, monkeypatch):
    def enumerator_called():
        raise AssertionError("enumerated boards before rejecting the flags")

    monkeypatch.setattr(cli, "iter_modular_magic", enumerator_called)
    assert run(["enumerate", "--variant", "modular-magic", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def test_enumerate_count_only_conflicts_with_out(capsys, monkeypatch, tmp_path):
    def enumerator_called(*_, **__):
        raise AssertionError("enumerated boards before rejecting the flags")

    monkeypatch.setattr(cli, "_map_partitions", enumerator_called)
    out = tmp_path / "boards.txt"
    argv = ["enumerate", "--variant", "modular-magic", "--count-only", "--out", str(out)]
    assert run(argv) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_to_file_writes_the_json_count(tmp_path, capsys):
    out, report = tmp_path / "boards.mssb", tmp_path / "count.json"
    argv = ["enumerate", "--variant", "modular-magic", "--format", "binary"]
    assert run(argv + ["--out", str(out), "--json", str(report)]) == 0
    assert capsys.readouterr().out == f"32256 boards written to {out}\n"
    assert json.loads(report.read_text()) == {"variant": "modular-magic", "count": 32256}
    assert len(read_mssb(out.open("rb"))) == 32256


def _module_env():
    """The environment for `python -m magicsudoku` from this source tree."""
    src = str(Path(magicsudoku.__file__).resolve().parents[1])
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_python_dash_m_runs_the_cli():
    argv = [sys.executable, "-m", "magicsudoku", "verify", "--checks", "g9_certificate"]
    done = subprocess.run(argv, env=_module_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "g9_certificate: PASS" in done.stdout


def test_stdout_closed_early_exits_1_with_nothing_on_stderr():
    # As `enumerate ... | head -1` does: read one line, close the pipe.
    argv = [sys.executable, "-m", "magicsudoku", "enumerate", "--variant", "modular-magic"]
    pipe = subprocess.PIPE
    proc = subprocess.Popen(argv, env=_module_env(), stdout=pipe, stderr=pipe)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
    assert len(first) == 82 and stderr == b""


def test_enumerate_to_binary_file(tmp_path, mm_sample):
    out = tmp_path / "mm.mssb"
    code = run(
        [
            "enumerate",
            "--variant",
            "modular-magic",
            "--out",
            str(out),
            "--format",
            "binary",
            "--quiet",
        ]
    )
    assert code == 0
    boards = read_mssb(out.open("rb"))
    assert len(boards) == 32256
    assert boards[0] == mm_sample[0]
    assert boards[31] == mm_sample[1]
    assert len(set(boards)) == 32256


def test_enumerate_to_text_file(tmp_path, capsys):
    out = tmp_path / "boards.txt"
    assert run(["enumerate", "--variant", "modular-magic", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"32256 boards written to {out}\n"
    lines = out.read_text().splitlines()
    assert len(lines) == 32256
    assert lines == [format_board(board) for board in iter_modular_magic()]


# SHA-256 of the modular-magic files of enumerate --out, computed when
# boards were gathered cell by cell and split one at a time.
_MM_FILE_DIGESTS = {
    "text": "74577cd5031790ff38637f41d546ffbc36bf7ed0b8737284c0afca8069a81942",
    "binary": "9a9c1683f2fbc0c79db89cdf54d6c37ffa7de1de67cfa794693be40ef21e7bce",
}


@pytest.mark.parametrize("fmt", sorted(_MM_FILE_DIGESTS))
def test_enumerate_file_bytes_pinned(tmp_path, fmt):
    out = tmp_path / f"mm.{fmt}"
    assert run(["enumerate", "--variant", "modular-magic", "--format", fmt,
                "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _MM_FILE_DIGESTS[fmt]


def test_census_json(tmp_path, capsys, mm_census):
    out = tmp_path / "census.json"
    code = run(
        [
            "census",
            "--variant",
            "modular-magic",
            "--threads",
            "2",
            "--quiet",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["variant"] == "modular-magic"
    assert payload["total"] == 32256
    got = {entry["label"]: entry["count"] for entry in payload["nests"]}
    assert got == {
        "[1,1]": 1536,
        "[2,2]": 1536,
        "[7,7]": 1536,
        "[1,2]": 4608,
        "[1,8]": 4608,
        "[2,1]": 4608,
        "[2,7]": 4608,
        "[7,2]": 4608,
        "[7,5]": 4608,
    }
    assert [entry["label"] for entry in payload["nests"]] == sorted(got)
    # Two workers give the one-thread census.
    assert got == {str(label): n for label, n in mm_census.counts.items()}


def test_nest_graph_outputs(tmp_path, capsys):
    dot_file = tmp_path / "nests.dot"
    report_file = tmp_path / "report.json"
    code = run(
        [
            "nest-graph",
            "--variant",
            "modular-magic",
            "--relabelings",
            "rho,mu(4,0)",
            "--dot",
            str(dot_file),
            "--report",
            str(report_file),
            "--quiet",
        ]
    )
    assert code == 0
    dot = dot_file.read_text()
    assert '"[7,7]" -> "[7,7]" [label="rho"];' in dot
    assert '"[7,7]" -> "[1,1]" [label="mu(4,0)"];' in dot
    report = json.loads(report_file.read_text())
    assert report["variant"] == "modular-magic"
    assert report["component_count"] == 2
    assert report["components"] == [
        ["[1,1]", "[2,2]", "[7,7]"],
        ["[1,2]", "[1,8]", "[2,1]", "[2,7]", "[7,2]", "[7,5]"],
    ]
    assert len(report["edges"]) == 18
    assert {"from": "[7,7]", "to": "[1,1]", "generator": "mu(4,0)"} in report["edges"]


def test_nest_graph_dot_to_stdout(capsys):
    code = run(
        ["nest-graph", "--variant", "modular-magic", "--relabelings", "rho,mu(4,0)"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph nests {")


def test_nest_graph_semi_magic_defaults(tmp_path):
    report_file = tmp_path / "sm.json"
    code = run(
        [
            "nest-graph",
            "--variant",
            "semi-magic",
            "--relabelings",
            "(12)(45)(78)",
            "--report",
            str(report_file),
            "--quiet",
        ]
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert [len(c) for c in report["components"]] == [1, 6, 9]
    assert report["components"][0] == ["[7,8]"]


def test_nest_graph_rejects_bad_generator(capsys):
    code = run(
        ["nest-graph", "--variant", "semi-magic", "--relabelings", "(01)", "--quiet"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.out + captured.err


def test_keedwell_json(tmp_path, capsys):
    out = tmp_path / "kw.json"
    code = run(
        ["keedwell", "--board", CANON_SM_71, "--json", str(out), "--quiet"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload == {
        "keedwell": True,
        "c": [[0, 1, 2], [0, 2, 1], [0, 1, 2]],
        "d": [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
        "degree": 1,
    }


def test_keedwell_stdout_matches_json_file(tmp_path, capsys):
    out = tmp_path / "kw.json"
    assert run(["keedwell", "--board", CANON_SM_71, "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(["keedwell", "--board", CANON_SM_71]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_keedwell_rejects_bad_board(capsys):
    assert run(["keedwell", "--board", "123", "--quiet"]) == 2
    capsys.readouterr()


def test_minimality_g9_default(tmp_path, capsys):
    out = tmp_path / "g9.json"
    assert run(["minimality-g9", "--json", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == [
        "total_boards", "orbit_count", "group_order", "average_orbit_floor", "bound_holds"
    ]
    assert payload == {
        "total_boards": 6_670_903_752_021_072_936_960,
        "orbit_count": 5_472_730_538,
        "group_order": 1_218_998_108_160,
        "average_orbit_floor": 1_218_935_174_261,
        "bound_holds": True,
    }


def test_minimality_g9_failing_bound(capsys):
    code = run(
        ["minimality-g9", "--group-order", str(10**18), "--quiet"]
    )
    assert code == 1
    capsys.readouterr()


def test_verify_selected_checks(capsys):
    code = run(["verify", "--checks", "sm_blocks,g9_certificate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sm_blocks: PASS" in out
    assert "g9_certificate: PASS" in out
    assert "overall: PASS" in out


def test_verify_unknown_check_is_usage_error(capsys):
    assert run(["verify", "--checks", "nonsense"]) == 2
    capsys.readouterr()


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--checks", "g9_certificate", "--json", str(out), "--quiet"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["overall"] is True
    assert payload["checks"][0]["name"] == "g9_certificate"
    assert payload["checks"][0]["pass"] is True


@pytest.mark.parametrize(
    "selection",
    [
        ["--all", "--checks", "g9_certificate"],
        ["--all", "--variant", "semi-magic"],
        ["--variant", "semi-magic", "--checks", "g9_certificate"],
    ],
)
def test_verify_selections_are_mutually_exclusive(selection, capsys, monkeypatch):
    def checks_run(*_, **__):
        raise AssertionError("ran checks before rejecting the selection")

    monkeypatch.setattr(cli.verification, "run_checks", checks_run)
    assert run(["verify", *selection]) == 2
    assert "not allowed with" in capsys.readouterr().err


def test_verify_all_selects_every_check(capsys, monkeypatch):
    selected = []
    run_checks = cli.verification.run_checks

    def recorded(names, threads):
        selected.append(names)
        return run_checks(["g9_certificate"], threads=threads)

    monkeypatch.setattr(cli.verification, "run_checks", recorded)
    assert run(["verify", "--all", "--threads", "1"]) == 0
    assert selected == [None]  # None: every registered check
    capsys.readouterr()


@pytest.mark.parametrize("checks", [",", ""])
def test_verify_empty_check_selection_is_usage_error(checks, capsys, monkeypatch):
    def context_built(**_):
        raise AssertionError("started checks before rejecting the selection")

    monkeypatch.setattr(cli.verification, "VerifyContext", context_built)
    assert run(["verify", "--checks", checks]) == 2
    assert "no checks selected" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_threads_env_below_one_is_usage_error(value, capsys, monkeypatch):
    def checks_run(*_, **__):
        raise AssertionError("ran checks before rejecting MSS_THREADS")

    monkeypatch.setenv("MSS_THREADS", value)
    monkeypatch.setattr(cli.verification, "run_checks", checks_run)
    assert run(["verify", "--checks", "g9_certificate"]) == 2
    assert "MSS_THREADS" in capsys.readouterr().err


def test_threads_option_below_one_is_usage_error(capsys, monkeypatch):
    def census_run(*_):
        raise AssertionError("ran the census before rejecting --threads")

    monkeypatch.setattr(cli.nests, "_threaded_census", census_run)
    assert run(["census", "--variant", "modular-magic", "--threads", "0"]) == 2
    assert "bad thread count" in capsys.readouterr().err


_OUTPUT_COMMANDS = {
    "--json": ["census", "--variant", "modular-magic", "--threads", "1"],
    "--out": ["enumerate", "--variant", "modular-magic"],
    "--dot": ["nest-graph", "--variant", "modular-magic", "--relabelings", "rho"],
    "--report": ["nest-graph", "--variant", "modular-magic", "--relabelings", "rho"],
}


@pytest.mark.parametrize("where", ["missing_parent", "directory"])
@pytest.mark.parametrize("option", sorted(_OUTPUT_COMMANDS))
def test_unwritable_output_path_is_a_usage_error_before_any_work(
    option, where, tmp_path, capsys, monkeypatch
):
    def work_started(*_, **__):
        raise AssertionError("started work before rejecting the output path")

    monkeypatch.setattr(cli.nests, "_threaded_census", work_started)
    monkeypatch.setattr(cli, "iter_modular_magic", work_started)
    monkeypatch.setattr(cli.nestgraph, "build_nest_graph", work_started)
    monkeypatch.setattr(cli.verification, "run_checks", work_started)
    path = tmp_path / "missing" / "out" if where == "missing_parent" else tmp_path
    assert run([*_OUTPUT_COMMANDS[option], option, str(path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
