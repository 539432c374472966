"""kgf benchmark: one workload, measured as a sequence of real kgf commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (kgf is imported from ``src``; no
install is needed).  Each pass runs the workload's invocations one after
another, each in a fresh ``python -m kgf`` child (closed loop, one client),
and checks every output.  Passes repeat while the invocation time of
another still fits in ``--seconds``.

With ``--trace 0`` the end-to-end metrics are the medians over passes;
``setup_s`` is the median of several fresh interpreters that import
``kgf.cli`` and load the workload's config.  With ``--trace 1`` untraced
and traced passes alternate; traced children run through
``traced_kgf.py`` and the per-layer metrics come from their spans.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it record the environment and any
failure.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import harness
import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 7
SETUP_CODE = "import sys, kgf.cli; kgf.cli.load_config(sys.argv[1])"
#: A hang is cut here and counted as a failed invocation.
CALL_TIMEOUT = 90.0
#: A run never goes past this many seconds, whatever ``--seconds`` says.
RUN_BUDGET = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slowest_call_s": "s",
    "success_ratio": "ratio",
}

#: The layer expected to own most self time on each workload.
PREDICTED_LAYER = {
    "expect_d1": "opalgebra",
    "kernels_d23": "kernels",
    "sample_stream": "sampler",
    "verify_all": "sampler",
}

#: Per-layer time metrics: the outermost time spent in the named spans.
TIME_GROUPS = {
    "cli.import_s": ("cli.import",),
    "cli.load_config_s": ("cli.load_config",),
    "kernels.ip_d1_s": ("kernels.ip_d1",),
    "kernels.ip_d2_s": ("kernels.ip_d2",),
    "kernels.ip_d3_s": ("kernels.ip_d3",),
    "kernels.table_build_s": ("kernels.table_build",),
    "opalgebra.parse_s": ("opalgebra.parse_terms", "opalgebra.parse_expression"),
    "opalgebra.vev_distinct_s": ("opalgebra.vev_distinct",),
    "opalgebra.vev_repeated_s": ("opalgebra.vev_repeated",),
    "opalgebra.vev_ladder_s": ("opalgebra.vev_ladder",),
    "sampler.draw_d1_s": ("sampler.draw_d1",),
    "sampler.draw_d2_s": ("sampler.draw_d2",),
    "sampler.draw_d3_s": ("sampler.draw_d3",),
    "sampler.accumulate_s": ("sampler.accumulate",),
    "sampler.expected_power_s": ("sampler.expected_power",),
    "sampler.write_binary_s": ("sampler.write_binary",),
    "sampler.write_csv_s": ("sampler.write_csv",),
    "sampler.spectrum_csv_s": ("sampler.spectrum_csv",),
}

VERIFY_CHECKS = {
    "verify.kernel_axioms_s": "kernel_axioms",
    "verify.algebra_equivalence_s": "algebra_equivalence",
    "verify.two_point_s": "two_point_orientation",
    "verify.lambda_closure_s": "lambda_closure",
    "verify.crossover_s": "crossover",
    "verify.sampler_moments_s": "sampler_moments",
    "verify.equipartition_s": "equipartition",
    "verify.fock_oracle_s": "fock_oracle",
}
_VERIFY_CHECK = re.compile(r"^\[(?:PASS|FAIL)\] (\w+) \(([0-9.]+)s\)", re.MULTILINE)

PER_LAYER = dict(
    {name: "s" for name in TIME_GROUPS},
    **{
        "kernels.ip_calls": "count",
        "kernels.nodes_evaluated": "count",
        "kernels.table_pairs": "count",
        "kernels.table_useful_ratio": "ratio",
        "opalgebra.expanded_words": "count",
        "opalgebra.pairings": "count",
        "sampler.sites_per_s": "1/s",
        "sampler.bytes_written": "B",
        "sampler.resident_bytes": "B",
    },
    **{name: "s" for name in VERIFY_CHECKS},
    **{f"layer.{layer}_self_s": "s" for layer in sp.LAYERS},
    **{"trace.overhead_s": "s"},
)


@dataclass
class PassResult:
    outcomes: list
    traced: bool
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(o.result.wall_s for o in self.outcomes)


def end_to_end(passes: list) -> dict:
    """Per-pass figures; a run reports their medians."""
    rows = []
    for p in passes:
        results = [o.result for o in p.outcomes]
        rows.append({
            "wall_s": p.wall_s,
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024.0,
            "slowest_call_s": max(r.wall_s for r in results),
        })
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def layer_metrics(calls: list) -> dict:
    """Per-layer metrics of one traced pass from (spans, stdout, bytes) per call."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    draw_time = sites = pairs = used = 0.0
    for spans, stdout, written in calls:
        for metric, names in TIME_GROUPS.items():
            out[metric] += sp.outermost_time(spans, names)
        for layer, own in sp.layer_self_times(spans).items():
            out[f"layer.{layer}_self_s"] += own
        out["kernels.ip_calls"] += sum(1 for s in spans
                                       if s[0].startswith("kernels.ip_d"))
        out["kernels.nodes_evaluated"] += sp.count(spans, "nodes")
        out["opalgebra.expanded_words"] += sp.count(spans, "words")
        out["opalgebra.pairings"] += sp.count(spans, "pairings")
        pairs += sp.count(spans, "pairs")
        used += sp.count(spans, "used_pairs")
        sites += sp.count(spans, "sites")
        draw_time += sp.outermost_time(
            spans, ("sampler.draw_d1", "sampler.draw_d2", "sampler.draw_d3"))
        out["sampler.resident_bytes"] = max(
            [out["sampler.resident_bytes"]]
            + [s[4]["resident_bytes"] for s in spans
               if s[4] and "resident_bytes" in s[4]])
        out["sampler.bytes_written"] += written
        # the suite's own per-check timings, as printed
        elapsed = {name: float(sec) for name, sec in _VERIFY_CHECK.findall(stdout)}
        for metric, check in VERIFY_CHECKS.items():
            out[metric] += elapsed.get(check, 0.0)
    out["kernels.table_pairs"] = pairs
    out["kernels.table_useful_ratio"] = used / pairs if pairs else 0.0
    # summed over threads: the rate of one drawing thread
    out["sampler.sites_per_s"] = sites / draw_time if draw_time else 0.0
    return out


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Runner:
    """Runs the passes of one workload and keeps the failure tally."""

    def __init__(self, workload, run_dir: Path, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = harness.child_env(ROOT)
        self.tally = harness.Tally()

    def _timeout(self) -> float:
        return max(1.0, min(CALL_TIMEOUT, self.deadline - time.monotonic()))

    def invoke(self, label: str, cmd: list, referee=None, out_dir=None):
        from kgf.errors import KGFError

        timeout = self._timeout()
        result = harness.run_child(cmd, self.env, ROOT, timeout, self.run_dir)
        error = harness.failure_reason(result, timeout)
        if error is None and referee is not None:
            try:
                referee(result, out_dir)
            except (harness.RefereeError, KGFError) as exc:
                error = f"referee: {exc}"
        outcome = harness.Outcome(label, result, error)
        self.tally.record(outcome)
        if error is not None:
            print(f"# FAILED {label}: {error}")
        return outcome

    def setup_times(self, repeats: int) -> list:
        """Wall seconds of fresh interpreters importing kgf.cli and loading
        the workload config; the first, which may compile bytecode, is
        discarded."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(self.workload.setup_config)]
        times = [self.invoke("setup", cmd).result.wall_s
                 for _ in range(repeats + 1)]
        return times[1:]

    def run_pass(self, traced: bool) -> PassResult:
        outcomes, calls = [], []
        spans_path = self.run_dir / "spans.npz"
        for call in self.workload.calls:
            args = list(call.args)
            out_dir = None
            if call.writes_files:
                out_dir = Path(tempfile.mkdtemp(dir=self.run_dir))
                args += ["--out", str(out_dir)]
            if traced:
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "traced_kgf.py"),
                       str(spans_path)] + args
            else:
                cmd = [sys.executable, "-m", "kgf"] + args
            try:
                outcome = self.invoke(call.label, cmd, call.referee, out_dir)
                written = _tree_bytes(out_dir) if out_dir else 0
            finally:
                if out_dir is not None:
                    shutil.rmtree(out_dir)
            outcomes.append(outcome)
            if traced:
                spans = sp.load(spans_path) if spans_path.exists() else []
                calls.append((spans, outcome.result.stdout, written))
        result = PassResult(outcomes, traced)
        if traced:
            result.layers = layer_metrics(calls)
        return result

    def run_passes(self, seconds: float, traced: bool) -> list:
        """Untraced passes, or untraced/traced pairs, while the invocation
        time of another still fits in ``seconds``.  Referee time does not
        count: the first pass's checks are slow, later ones compare digests."""
        kinds = (False, True) if traced else (False,)
        passes = []
        measured = 0.0
        while True:
            round_ = [self.run_pass(kind) for kind in kinds]
            passes += round_
            spent = sum(p.wall_s for p in round_)
            measured += spent
            if (measured + spent > seconds
                    or time.monotonic() + 1.5 * spent > self.deadline):
                return passes


def dominant_layer(layers: dict) -> str:
    own = {key.split(".")[1][:-len("_self_s")]: value
           for key, value in layers.items() if key.startswith("layer.")}
    return max(own, key=own.get)


def per_layer_result(workload: str, passes: list) -> dict:
    untraced = [p.wall_s for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    layers = {key: statistics.median(p.layers[key] for p in traced)
              for key in PER_LAYER if key != "trace.overhead_s"}
    layers["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(untraced))
    found, predicted = dominant_layer(layers), PREDICTED_LAYER[workload]
    verdict = "holds" if found == predicted else "is wrong"
    print(f"# dominant layer by self time: {found}; predicted {predicted}: "
          f"prediction {verdict}")
    return {key: {"value": layers[key], "unit": PER_LAYER[key]} for key in PER_LAYER}


def _terminate(signum, _frame):
    # unwinds through run_child, which kills and reaps the running child,
    # and through the clean-up of the work directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PREDICTED_LAYER))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kgf" / "__init__.py").is_file():
        print(f"error: no kgf sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports kgf

    print("# environment: " + json.dumps(
        harness.environment(ROOT, args.workload, args.seed)))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        runner = Runner(workload, run_dir, deadline)
        if args.trace:
            runner.setup_times(0)  # compile bytecode outside the timed passes
            passes = runner.run_passes(args.seconds, traced=True)
            metrics = per_layer_result(args.workload, passes)
        else:
            setup = runner.setup_times(SETUP_REPEATS)
            passes = runner.run_passes(args.seconds, traced=False)
            metrics = end_to_end(passes)
            metrics["setup_s"] = statistics.median(setup)
            metrics["success_ratio"] = 1.0 - runner.tally.failed_ratio
            metrics = {k: {"value": metrics[k], "unit": unit}
                       for k, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    tally = runner.tally
    print(f"# {len(passes)} passes, {tally.attempted} invocations, "
          f"{tally.failed} failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
