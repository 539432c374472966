"""The verification suite's runner: forked children where it is safe,
inline elsewhere, the same report either way."""

import os
import re
import subprocess
import sys
import time

import pytest

from kgf import opalgebra, verify

# Forking from a process that runs a BLAS thread draws a DeprecationWarning
# on Python 3.12+; the checks forked in-process here touch no BLAS.
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")

#: Run as ``python -c RUN CPUS``: ``kgf verify --suite all`` on the given
#: CPUs through runpy, with each fork the runner makes counted on stderr.
RUN = """
import os, runpy, sys

os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[1].split(",")})
forks = []
fork = os.fork

def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counted
sys.argv[1:] = ["verify", "--suite", "all"]
try:
    runpy.run_module("kgf", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(f"forks {len(forks)} exit {code}", file=sys.stderr)
"""

#: A time as ``kgf verify`` prints it: each check's, each sampled leg's
#: and the total.
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
    inline, inline_info = verify_on(two[:1])
    forked, forked_info = verify_on(two)
    assert inline_info == "forks 0 exit 0"
    assert forked_info == f"forks {len(verify.SUITES['all'])} exit 0"
    assert forked == inline
    assert len(inline.splitlines()) == 9


@verify._check("passes")
def passes(seed=verify.DEFAULT_SEED):
    return True, f"seed {seed}"


@verify._check("divides_by_zero")
def divides_by_zero(seed=verify.DEFAULT_SEED):
    return True, str(1 / 0)


@verify._check("sleeps")
def sleeps(seed=verify.DEFAULT_SEED):
    time.sleep(5.0)
    return True, "slept"


@verify._check("exits_early")
def exits_early(seed=verify.DEFAULT_SEED):
    os._exit(7)


@pytest.fixture
def forked(monkeypatch):
    """Fork the checks registered as suite "test", and require that no
    child is left over."""
    monkeypatch.setattr(verify, "_fork_slots", lambda count: 2)
    yield lambda *checks: monkeypatch.setitem(verify.SUITES, "test", checks)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_results_come_in_suite_order(forked):
    forked(passes, passes, passes)
    results = verify.run_suite("test", seed=5)
    assert [(r.name, r.passed, r.detail) for r in results] == [("passes", True, "seed 5")] * 3


def test_an_exception_in_a_child_is_raised_in_the_parent(forked):
    # the raise comes while "sleeps" runs: that child is killed and reaped
    forked(sleeps, divides_by_zero, passes)
    start = time.perf_counter()
    with pytest.raises(ZeroDivisionError) as info:
        verify.run_suite("test")
    assert time.perf_counter() - start < 4.0
    assert isinstance(info.value.__cause__, verify._ChildTraceback)
    assert "divides_by_zero" in str(info.value.__cause__)


def test_a_child_that_exits_without_a_result_fails_its_check(forked):
    forked(passes, exits_early, passes)
    results = verify.run_suite("test")
    assert [r.passed for r in results] == [True, False, True]
    assert results[1].name == "exits_early"
    assert results[1].detail == "check process exited with status 7 before sending a result"


def test_the_real_suite_forked_matches_inline(forked):
    forked(*verify.SUITES["spectra"])
    assert ([(r.name, r.passed, r.detail) for r in verify.run_suite("test")]
            == [(r.name, r.passed, r.detail) for r in verify.run_suite("spectra")])


def test_forking_needs_two_checks_two_cpus_and_one_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    assert verify._fork_slots(8) == 3
    assert verify._fork_slots(2) == 2
    assert verify._fork_slots(1) == 0
    monkeypatch.setattr(os, "listdir", lambda path: ["1", "2"])
    assert verify._fork_slots(8) == 0
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verify._fork_slots(8) == 0


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
