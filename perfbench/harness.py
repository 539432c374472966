"""Child-process runner, failure accounting, statistics and the environment record.

Every ``kgf`` invocation runs in its own interpreter, one at a time (a
closed loop with one client), so its wall time, CPU time and peak resident
set come straight from ``os.wait4`` on that child alone.
"""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

#: Environment variables that steer kgf itself; removed so that only the
#: command line and the generated configs decide what a child does
#: (``KGF_THREADS`` would silently override ``--workers``).
_KGF_VARIABLES = ("KGF_THREADS",)

#: Thread-count variables of BLAS/OpenMP runtimes, recorded as inherited.
_THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

STDERR_TAIL = 400


class RefereeError(Exception):
    """An invocation exited 0 but its output failed the benchmark's check."""


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str
    timed_out: bool


@dataclass
class Outcome:
    """One attempted invocation: its measurements and, if it failed, why."""

    label: str
    result: ChildResult
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class Tally:
    """Attempted and failed invocations over a whole run."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, outcome: Outcome):
        self.attempted += 1
        if outcome.failed:
            self.failures.append(outcome)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def child_env(root: Path) -> dict:
    """Inherited environment with ``src`` as the only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if k not in _KGF_VARIABLES}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(cmd: list, env: dict, cwd: Path, timeout: float,
              capture_dir: Path) -> ChildResult:
    """Run ``cmd`` to completion and collect its resource usage.

    The child is killed after ``timeout`` seconds, so a hang is reported as
    a failed invocation instead of stalling the run.  stdout and stderr go
    to files in ``capture_dir`` so a chatty child can never block on a pipe.
    """
    out_path = capture_dir / "child.stdout"
    err_path = capture_dir / "child.stderr"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd)

        def kill():
            killed.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping: the exited child stays a zombie, so the
            # timer can never signal a recycled pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=killed.is_set(),
    )


def failure_reason(result: ChildResult, timeout: float) -> str | None:
    """Why an invocation failed before any referee looked at it, or None."""
    if result.timed_out:
        return f"timed out after {timeout:.0f}s"
    if result.returncode != 0:
        tail = result.stderr.strip()[-STDERR_TAIL:]
        return f"exit {result.returncode}: {tail}"
    return None


def relative_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    """Cache sizes of cpu0 by level, e.g. {"L2": "2048K", "L3": "107520K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, naming the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str | None:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, workload: str, seed: int) -> dict:
    """What a result needs next to it to be compared with another result."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(root),
        "source_sha256": source_digest(root),
        "nproc": cores,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "jsonschema": _version("jsonschema"),
        "thread_env": {k: os.environ[k] for k in _THREAD_VARIABLES
                       if k in os.environ},
    }
