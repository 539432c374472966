"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9] [--seconds 20]

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median of its values and (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound from ``BENCHMARK.json``.  The raw values go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-400:]}")
            failed += 1
            continue
        result = json.loads(lines[-1])
        failed += not result["correct"]
        for line in lines:
            if line.startswith("# FAILED"):
                print(f"seed {seed}: {line}")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']} " + " ".join(
            f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for key, value in row.items():
            values.setdefault(key, []).append(value)
    for key, vals in values.items():
        if len(vals) < 2:
            continue
        mid = statistics.median(vals)
        spread = relative_spread(vals) if mid else 0.0
        print(f"{args.workload} {key}: median {mid:.6g}, spread {spread:.3f} "
              f"(bound {bounds.get(key)}, n={len(vals)})")
    if args.out:
        args.out.write_text(json.dumps(values), encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
