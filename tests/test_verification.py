"""The verify check registry and the shared VerifyContext results."""

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from magicsudoku import nests, verification
from magicsudoku.errors import DomainError, IntegrityError
from magicsudoku.verification import VerifyContext


def test_check_registry_is_pinned():
    assert list(verification.CHECKS) == [
        "group_orders",
        "mm_enumeration",
        "sm_blocks",
        "sm_enumeration",
        "gnomon_completions",
        "mm_census",
        "sm_census",
        "sm_crosscheck",
        "mm_nest_graph",
        "sm_nest_graphs",
        "mm_minimality",
        "sm_minimality",
        "mm_orbit_sizes",
        "sm_orbit_sizes",
        "keedwell_suite",
        "off_diagonal_sweep",
        "g9_certificate",
        "mm_properties",
        "sm_properties",
    ]
    assert verification.CRITERIA == {
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
    assert verification.VARIANT_CHECKS == {
        "MM": (
            "group_orders",
            "mm_enumeration",
            "mm_census",
            "mm_nest_graph",
            "mm_minimality",
            "mm_orbit_sizes",
            "off_diagonal_sweep",
            "g9_certificate",
            "mm_properties",
        ),
        "SM": (
            "group_orders",
            "sm_blocks",
            "sm_enumeration",
            "gnomon_completions",
            "sm_census",
            "sm_crosscheck",
            "sm_nest_graphs",
            "sm_minimality",
            "sm_orbit_sizes",
            "keedwell_suite",
            "g9_certificate",
            "sm_properties",
        ),
    }


def test_run_checks_rejects_an_empty_selection():
    with pytest.raises(DomainError, match="no checks selected"):
        verification.run_checks([])


def test_mm_census_and_sweep_do_not_depend_on_threads(ctx):
    # Two forked workers run the census and the sweep on the tables
    # already built in this process.
    two = VerifyContext(threads=2)
    assert list(two.census("MM").counts.items()) == list(ctx.census("MM").counts.items())
    assert two.census("MM") == ctx.census("MM")
    assert two.off_diagonal_sweep() == ctx.off_diagonal_sweep()


def _raise(exc):
    def crosscheck(board):
        raise exc

    return crosscheck


def test_sm_crosscheck_counts_only_library_errors(monkeypatch):
    monkeypatch.setattr(verification, "SM_CROSSCHECK_TARGET", 3)
    monkeypatch.setattr(nests, "crosscheck_sm", _raise(IntegrityError("disagree")))
    assert VerifyContext().sm_crosscheck() == (3, 3)
    monkeypatch.setattr(nests, "crosscheck_sm", _raise(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        VerifyContext().sm_crosscheck()


def test_sm_crosscheck_does_not_depend_on_threads(monkeypatch):
    def crosscheck(board):
        if board.cells[0] % 2 == 0:
            raise IntegrityError("disagree")

    monkeypatch.setattr(verification, "SM_CROSSCHECK_TARGET", 12)
    monkeypatch.setattr(nests, "crosscheck_sm", crosscheck)
    checked, mismatches = VerifyContext(threads=1).sm_crosscheck()
    assert checked == 12 and mismatches > 0
    assert VerifyContext(threads=2).sm_crosscheck() == (checked, mismatches)


def test_thread_count_is_an_integer():
    assert VerifyContext(np.int64(2)).threads == 2
    for bad in (1.5, "2", None, 0):
        with pytest.raises(DomainError, match="bad thread count"):
            VerifyContext(bad)


def test_timed_count_times_a_fresh_build():
    builds = []

    @cache
    def build():
        builds.append(1)
        return (1, 2, 3)

    build()  # an earlier check filled the cache
    expected, actual = verification._check_timed_count(VerifyContext(), build, 3)
    assert expected == actual == {"count": 3, "within_1s": True}
    assert len(builds) == 2


def test_group_orders_builds_no_h_gamma_table():
    # A fresh process, so that no other test has filled the caches. The
    # orders and the property draws come from the factored groups, so the
    # property checks build neither table; group_orders still builds
    # H_MM's, through g_mm_group.
    code = (
        "from magicsudoku import catalog, verification\n"
        "assert verification.run_checks(['mm_properties', 'sm_properties']).overall\n"
        "print(*(f.cache_info().currsize for f in (catalog.h_gamma_group, catalog.h_mm_group)))\n"
        "assert verification.run_checks(['group_orders']).overall\n"
        "print(catalog.h_gamma_group.cache_info().currsize)\n"
    )
    src = str(Path(verification.__file__).resolve().parents[1])
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = [sys.executable, "-c", code]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0\n0\n"
