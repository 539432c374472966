"""A/B benchmark of two versions of kgf with the unchanged perfbench harness.

    python3 tools/bench_ab.py --label NAME [--base REV] [--head REV]
        [--workdir DIR]

Run from a git checkout.  ``--base`` (default ``HEAD``) and ``--head`` are
each extracted into a directory of their own under ``--workdir``: a
revision by ``git archive``, which gives exactly its committed files, and
the default ``--head``, the working tree, by copying the files git tracks
or would add.  Nothing is registered in the repository's git metadata.

Then ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs
on both sides, one run at a time, alternating which side goes first, with
T the ``run_seconds`` of ``BENCHMARK.json``, ``PAIRS`` pairs on every
workload it declares, in its order (fewer pairs cannot resolve the
end-to-end bounds on a shared host).
Pair ``i`` uses seed ``BASE_SEED + i`` on both sides.  Before each pair, one
``python -c pass`` is timed, since a shared host drifts between pairs, and
so is a parallel-capacity probe: the wall time of two CPU-bound
``python -c`` loops run at once against one run alone.  Its ratio is near
1 when a second CPU was free and near 2 when none was, so a gain that
rests on a second CPU can be audited.

Writes ``BENCH_<label>.json``: every run's workload, seed, pair, side,
order, probe, metrics, ``correct`` and ``failed``; both revisions, their
source digests and the lines of their ``src/kgf/*.py`` (as ``wc -l``
counts them); the CPU count; the Python, numpy and BLAS versions; and per
workload the quartiles of the probe's ratio and, per side, the median and
quartiles of each metric.  Prints the medians and IQRs, the change of the
median, in how many pairs the head was better, the verdict on each
end-to-end metric (stored with it; see :func:`verdict`), and the change of
the source lines.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENVIRONMENT_PREFIX = "# environment: "
WORKTREE = "WORKTREE"
PAIRS = 10
BASE_SEED = 101

#: The CPU-bound loop of the parallel-capacity probe: about 0.2 s alone.
PROBE_LOOP = "x = 0\nfor i in range(3_000_000):\n    x += i"

BLAS_PROBE = ("import json, numpy; print(json.dumps(numpy.show_config(mode='dicts')"
              "['Build Dependencies']['blas']))")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def extract(rev: str, dest: Path) -> str:
    """Put the files of ``rev`` (or of the working tree) in ``dest``; return
    the commit hash, or ``WORKTREE``."""
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        for name in git("ls-files", "-z", "--cached", "--others",
                        "--exclude-standard").decode().split("\0"):
            source = ROOT / name
            if name and source.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return WORKTREE
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                else {}))
    return git("rev-parse", f"{rev}^{{commit}}").decode().strip()


def src_lines(tree: Path) -> int:
    """Newlines in ``tree``'s ``src/kgf/*.py``: what ``wc -l`` totals."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "kgf").glob("*.py"))


def size_change(sides: dict) -> str:
    base, head = sides["base"]["src_lines"], sides["head"]["src_lines"]
    return f"src/kgf/*.py: {base} -> {head} lines ({head - base:+d})"


def parse_run(stdout: str) -> tuple:
    """The environment record and the result object of one ``run.py`` output."""
    environment = {}
    for line in stdout.splitlines():
        if line.startswith(ENVIRONMENT_PREFIX):
            environment = json.loads(line[len(ENVIRONMENT_PREFIX):])
    return environment, json.loads(stdout.strip().splitlines()[-1])


def record(workload: str, seed: int, pair: int, side: str, order: int,
           calibration_s: float, probe: dict, stdout: str) -> tuple:
    """One run as BENCH stores it, and the environment record it printed."""
    environment, result = parse_run(stdout)
    return {
        "workload": workload, "seed": seed, "pair": pair, "side": side,
        "order": order, "calibration_s": calibration_s, "probe": probe,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }, environment


def quartiles(values: list) -> dict:
    values = sorted(values)
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(base: list, head: list, won: int, pairs: int, better: str,
            bound: float) -> str:
    """How the ``head`` runs of one metric compare with the ``base`` runs,
    read against the metric's relative ``bound``:

    - ``gain``: the head was better in at least 9/10 of the ``pairs`` (``won``
      counts those; a tie counts for neither side) and its median is better
      by more than the base's IQR;
    - ``worse``: the head median is worse than the base median by more than
      ``bound`` times the base median;
    - ``unresolved``: the base's IQR is wider than ``bound`` times its median,
      and not every head run beats every base run;
    - ``within bound``: anything else.
    """
    sign = 1 if better == "higher" else -1
    b, h = quartiles(base), quartiles(head)
    margin = sign * (h["median"] - b["median"])
    if 10 * won >= 9 * pairs and margin > b["iqr"]:
        return "gain"
    if -margin > bound * abs(b["median"]):
        return "worse"
    if (b["iqr"] > bound * abs(b["median"])
            and min(sign * v for v in head) <= max(sign * v for v in base)):
        return "unresolved"
    return "within bound"


def summarize(runs: list, end_to_end: dict) -> dict:
    """Per workload: each side's quartiles per metric, the change of the
    median and, for each metric of ``end_to_end`` (name to its
    ``BENCHMARK.json`` entry), the pairs in which the head was better and
    the :func:`verdict`."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        ratios = {run["pair"]: run["probe"]["ratio"] for run in mine}
        summary = {"pairs": len(pairs), "probe_ratio": quartiles(list(ratios.values())),
                   "metrics": {}}
        for name in mine[0]["metrics"]:
            values = {side: [run["metrics"][name] for run in mine if run["side"] == side]
                      for side in ("base", "head")}
            sides = {side: quartiles(values[side]) for side in values}
            base, head = sides["base"]["median"], sides["head"]["median"]
            entry = dict(sides, change=(head - base) / base if base else None)
            if name in end_to_end:
                better = end_to_end[name]["better"]
                sign = 1 if better == "higher" else -1
                won = sum(sign * (p["head"][name] - p["base"][name]) > 0 for p in pairs)
                entry["head_better_pairs"] = won
                entry["verdict"] = verdict(values["base"], values["head"], won,
                                           len(pairs), better, end_to_end[name]["bound"])
            summary["metrics"][name] = entry
        out[workload] = summary
    return out


def report(summary: dict) -> str:
    lines = []
    for workload, entry in summary.items():
        probe = entry["probe_ratio"]
        lines.append(f"{workload} ({entry['pairs']} pairs; two loops / one loop "
                     f"{probe['median']:.2f} [{probe['iqr']:.2f}])")
        lines.append(f"  {'metric':<16}{'base median [IQR]':>24}{'head median [IQR]':>24}"
                     f"{'change':>9}{'head better':>13}  verdict")
        for name, m in entry["metrics"].items():
            change = "" if m["change"] is None else f"{m['change']:+.1%}"
            wins = (f"{m['head_better_pairs']}/{entry['pairs']}"
                    if "head_better_pairs" in m else "")
            lines.append(
                f"  {name:<16}"
                + "".join(f"{m[side]['median']:>14.4g} [{m[side]['iqr']:.3g}]".rjust(24)
                          for side in ("base", "head"))
                + f"{change:>9}{wins:>13}  {m.get('verdict', '')}".rstrip())
    return "\n".join(lines)


def bench_document(label: str, sides: dict, runs: list, environment: dict,
                   end_to_end: dict, seconds: float) -> dict:
    return {
        "label": label,
        "sides": sides,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "usable_cpus": (len(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "python": environment.get("python"),
        "numpy": environment.get("numpy"),
        "blas": environment.get("blas"),
        "cpu_model": environment.get("cpu_model"),
        "summary": summarize(runs, end_to_end),
        "runs": runs,
    }


def timed_pass() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def parallel_probe() -> dict:
    """Wall seconds of one :data:`PROBE_LOOP` interpreter, then of two at
    once, and their ratio."""
    def wall(count: int) -> float:
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", PROBE_LOOP])
                 for _ in range(count)]
        if any(proc.wait() for proc in procs):
            raise RuntimeError("the parallel-capacity probe failed")
        return time.perf_counter() - start

    one = wall(1)
    two = wall(2)
    return {"one_s": one, "two_s": two, "ratio": two / one}


def blas_info():
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE],
                          capture_output=True, text=True)
    return json.loads(proc.stdout) if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--head", default=WORKTREE)
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    workdir = Path(tempfile.mkdtemp(dir=args.workdir, prefix="bench_ab_"))
    try:
        dirs = {"base": workdir / "base", "head": workdir / "head"}
        sides = {side: {"rev": rev, "commit": extract(rev, dirs[side]),
                        "src_lines": src_lines(dirs[side])}
                 for side, rev in (("base", args.base), ("head", args.head))}
        environment = {"blas": blas_info()}
        runs = []
        for workload in (w["name"] for w in benchmark["workloads"]):
            for pair in range(PAIRS):
                seed = BASE_SEED + pair
                calibration = timed_pass()
                probe = parallel_probe()
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for position, side in enumerate(order):
                    proc = subprocess.run(
                        [sys.executable, "perfbench/run.py", "--workload", workload,
                         "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", "0"],
                        cwd=dirs[side], capture_output=True, text=True, check=True)
                    run, env = record(workload, seed, pair, side, position,
                                      calibration, probe, proc.stdout)
                    runs.append(run)
                    sides[side]["source_sha256"] = env.get("source_sha256")
                    environment.update({k: env.get(k) for k in
                                        ("python", "numpy", "cpu_model")})
                    print(f"# {workload} pair {pair} {side}: wall_s "
                          f"{run['metrics']['wall_s']:.3f}, probe ratio "
                          f"{probe['ratio']:.2f}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = bench_document(args.label, sides, runs, environment, end_to_end,
                              seconds)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(report(document["summary"]))
    print(size_change(sides))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
