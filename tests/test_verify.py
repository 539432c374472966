"""The verification suite's runner: a pool of threads, one per usable CPU
up to the number of checks, and the same report on any CPU count."""

import os
import re
import subprocess
import sys
import threading

import pytest

from kgf import opalgebra, verify

#: Run as ``python -c RUN CPUS``: ``kgf verify --suite all`` on the given
#: CPUs through runpy, with its exit code on stderr.
RUN = """
import os, runpy, sys

os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[1].split(",")})
sys.argv[1:] = ["verify", "--suite", "all"]
try:
    runpy.run_module("kgf", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(f"exit {exc.code}", file=sys.stderr)
"""

#: A time as ``kgf verify`` prints it: each check's and the total.
TIME = re.compile(r"\b\d+\.\d+s\b")


def verify_on(cpus):
    proc = subprocess.run([sys.executable, "-c", RUN, ",".join(map(str, cpus))],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return TIME.sub("<t>", proc.stdout), proc.stderr.strip()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_one_and_two_cpus_print_the_same_lines():
    two = sorted(os.sched_getaffinity(0))[:2]
    one_cpu, one_info = verify_on(two[:1])
    two_cpus, two_info = verify_on(two)
    assert one_info == two_info == "exit 0"
    assert two_cpus == one_cpu
    assert len(one_cpu.splitlines()) == 9


@verify._check("passes")
def passes(seed=verify.DEFAULT_SEED):
    return True, f"seed {seed}"


@verify._check("divides_by_zero")
def divides_by_zero(seed=verify.DEFAULT_SEED):
    return True, str(1 / 0)


@pytest.fixture
def suite(monkeypatch):
    """Register the checks given as suite "test"."""
    return lambda *checks: monkeypatch.setitem(verify.SUITES, "test", checks)


def test_results_come_in_suite_order(suite):
    suite(passes, passes, passes)
    results = verify.run_suite("test", seed=5)
    assert [(r.name, r.passed, r.detail) for r in results] == [("passes", True, "seed 5")] * 3


def test_the_longest_check_starts_first_and_reports_in_place(suite, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    started = []

    def recording(name):
        @verify._check(name)
        def check(seed=verify.DEFAULT_SEED):
            started.append(name)
            return True, name
        return check

    longest = recording("longest")
    monkeypatch.setattr(verify, "check_sampler_moments", longest)
    suite(recording("first"), longest, recording("last"))
    results = verify.run_suite("test")
    assert started == ["longest", "first", "last"]  # one thread runs them in turn
    assert [r.name for r in results] == ["first", "longest", "last"]


def test_an_exception_in_a_check_is_raised_from_run_suite(suite):
    suite(passes, divides_by_zero, passes)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError) as info:
        verify.run_suite("test")
    assert info.traceback[-1].name == "divides_by_zero"  # the check's own raise
    assert threading.active_count() == threads


def test_the_real_suite_matches_one_thread(monkeypatch):
    def report():  # a detail is a function of the seed alone
        return [(r.name, r.passed, r.detail) for r in verify.run_suite("all")]

    pooled = report()
    assert not any(TIME.search(detail) for _, _, detail in pooled)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert report() == pooled
    assert len(pooled) == len(verify.SUITES["all"])


def test_the_algebra_suite_needs_no_expression_api(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expression API reached by kgf verify")

    for name in ("parse_expression", "vacuum_expectation"):
        monkeypatch.setattr(opalgebra, name, refuse)
    results = verify.run_suite("algebra")
    assert [(r.name, r.passed) for r in results] == [
        ("algebra_equivalence", True), ("two_point_orientation", True)]


@pytest.mark.parametrize("seed", range(16))
def test_algebra_equivalence_passes_across_seeds(seed):
    # the benchmark draws a fresh seed for every kgf verify it runs
    result = verify.check_algebra_equivalence(seed=seed)
    assert result.passed, result.detail
