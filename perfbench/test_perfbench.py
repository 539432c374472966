"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kgf import opalgebra  # noqa: E402


def test_relative_spread_uses_exclusive_quartiles():
    # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25]
    assert harness.relative_spread(range(1, 11)) == pytest.approx(1.0)
    assert harness.relative_spread([2.0] * 10) == 0.0


def _outcome(label, error=None):
    result = harness.ChildResult(0, 1.0, 1.0, 1024, "", "", False)
    return harness.Outcome(label, result, error)


def test_tally_counts_failures_over_attempts():
    tally = harness.Tally()
    for i in range(4):
        tally.record(_outcome(f"ok{i}"))
    tally.record(_outcome("bad", "exit 2: error"))
    assert (tally.attempted, tally.failed) == (5, 1)
    assert tally.failed_ratio == pytest.approx(0.2)
    assert harness.Tally().failed_ratio == 0.0


def test_unregistered_packet_probe_fails_with_exit_2(tmp_path, capsys):
    config = workloads.write_config(
        tmp_path / "c.json",
        {"dim": 1, "packets": {"f1": workloads.random_packet(
            np.random.default_rng(0), 1)}})
    runner = run.Runner(None, tmp_path, time.monotonic() + 60)
    ok = runner.invoke("probe ok", [sys.executable, "-m", "kgf", "expect",
                                    "--config", str(config), "phi[f1] phi[f1]"])
    bad = runner.invoke("probe bad", [sys.executable, "-m", "kgf", "expect",
                                      "--config", str(config), "phi[f1] phi[f9]"])
    assert not ok.failed
    assert bad.failed and bad.result.returncode == 2
    assert bad.error.startswith("exit 2:") and "f9" in bad.error
    assert (runner.tally.attempted, runner.tally.failed) == (2, 1)
    assert "# FAILED probe bad" in capsys.readouterr().out


def test_referee_rejection_counts_as_failure(tmp_path):
    def referee(result, _out):
        raise harness.RefereeError("wrong value")

    runner = run.Runner(None, tmp_path, time.monotonic() + 60)
    outcome = runner.invoke("refereed", [sys.executable, "-c", "pass"], referee)
    assert outcome.error == "referee: wrong value"
    assert runner.tally.failed == 1


def test_wait4_captures_child_peak_rss_and_cpu(tmp_path):
    env = harness.child_env(ROOT)
    small = harness.run_child([sys.executable, "-c", "pass"], env, ROOT, 30, tmp_path)
    big = harness.run_child(
        [sys.executable, "-c", "b = bytearray(200 << 20); print(len(b))"],
        env, ROOT, 30, tmp_path)
    assert big.returncode == 0 and big.stdout.strip() == str(200 << 20)
    assert big.maxrss_kb >= 200 * 1024 > small.maxrss_kb
    assert big.cpu_s > 0.0 and big.wall_s > 0.0


def test_timeout_kills_and_reports(tmp_path):
    env = harness.child_env(ROOT)
    start = time.monotonic()
    result = harness.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                               env, ROOT, 1.0, tmp_path)
    assert time.monotonic() - start < 30
    assert result.timed_out
    assert harness.failure_reason(result, 1.0) == "timed out after 1s"


def test_child_env_drops_kgf_threads(monkeypatch):
    monkeypatch.setenv("KGF_THREADS", "7")
    env = harness.child_env(ROOT)
    assert "KGF_THREADS" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_self_time_subtracts_union_of_children():
    # root [0,10] has children a [1,4] and b [3,6] (overlapping, as from two
    # threads); b has child c [5,5.5]; d [20,21] is a second root.
    rows = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("sampler.draw_d2", 1.0, 4.0, 0, {"sites": 4}),
        ("sampler.sample_array", 3.0, 6.0, 0, None),
        ("sampler.draw_d2", 5.0, 5.5, 2, {"sites": 4}),
        ("cli.import", 20.0, 21.0, -1, None),
    ]
    assert spans.self_times(rows) == pytest.approx([5.0, 3.0, 2.5, 0.5, 1.0])
    layers = spans.layer_self_times(rows)
    assert layers["cli"] == pytest.approx(6.0)
    assert layers["sampler"] == pytest.approx(6.0)
    # both draws are outermost among draws
    assert spans.outermost_time(rows, ["sampler.draw_d2"]) == pytest.approx(3.5)
    # with sample_array in the group, the draw nested in it is not added again
    assert spans.outermost_time(
        rows, ["sampler.draw_d2", "sampler.sample_array"]) == pytest.approx(6.0)
    assert spans.count(rows, "sites") == 8


def test_recorder_parents_pool_threads_to_waiting_span(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    rec = spans.Recorder()

    def work():
        rec.call("sampler.draw_d1", time.sleep, 0.01)

    outer = rec.open("sampler.sample_array")
    with ThreadPoolExecutor(2) as pool:
        for future in [pool.submit(work) for _ in range(4)]:
            future.result()
    rec.close(outer)
    rec.save(tmp_path / "s.npz")
    rows = spans.load(tmp_path / "s.npz")
    assert [r[0] for r in rows].count("sampler.draw_d1") == 4
    assert all(r[3] == 0 for r in rows[1:])
    assert all(own >= 0.0 for own in spans.self_times(rows))


def test_traced_child_records_layer_spans(tmp_path):
    config = workloads.write_config(
        tmp_path / "c.json",
        {"dim": 1, "packets": {f"f{i}": workloads.random_packet(
            np.random.default_rng(i), 1) for i in (1, 2, 3)}})
    spans_path = tmp_path / "spans.npz"
    result = harness.run_child(
        [sys.executable, str(HERE / "traced_kgf.py"), str(spans_path),
         "expect", "--config", str(config), "phi[f1] phi[f2]"],
        harness.child_env(ROOT), ROOT, 60, tmp_path)
    assert result.returncode == 0, result.stderr
    rows = spans.load(spans_path)
    names = {r[0] for r in rows}
    assert {"cli.import", "cli.main", "cli.load_config", "kernels.table_build",
            "kernels.ip_d1", "opalgebra.parse_expression",
            "opalgebra.vev_distinct"} <= names
    metrics = run.layer_metrics([(rows, result.stdout, 0)])
    assert metrics["kernels.table_pairs"] == 6
    assert metrics["kernels.table_useful_ratio"] == pytest.approx(0.5)
    assert metrics["kernels.ip_calls"] == 6
    assert metrics["opalgebra.expanded_words"] == 4
    assert metrics["opalgebra.pairings"] == 1


def test_pairing_sum_matches_hand_expansion():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    names = ["f1", "f2"]
    ip = {(names[i], names[j]): complex(vals[i, j]) for i in range(2) for j in range(2)}
    value, _ = workloads.pairing_sum([("phi", "f1"), ("phi", "f2")], ip)
    assert value == ip[("f2", "f1")]
    ladder = [("a", "f1"), ("a", "f2"), ("adag", "f2"), ("adag", "f1")]
    value, _ = workloads.pairing_sum(ladder, ip)
    expected = (ip[("f2", "f2")] * ip[("f1", "f1")]
                + ip[("f1", "f2")] * ip[("f2", "f1")])
    assert value == pytest.approx(expected, rel=1e-14)
    assert workloads.pairing_sum([("phi", "f1")] * 3, ip) == (0j, 0.0)


def test_pairing_sum_agrees_with_rewriting_engine():
    rng = np.random.default_rng(11)
    size = 5
    m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    m = 0.5 * (m + m.conj().T)
    registry = opalgebra.FunctionRegistry()
    names = [f"f{i + 1}" for i in range(size)]
    for name in names:
        registry.register(name)
    table = opalgebra.InnerProductTable(
        {(i + 1, j + 1): complex(m[i, j]) for i in range(size) for j in range(size)})
    ip = {(names[i], names[j]): complex(m[i, j])
          for i in range(size) for j in range(size)}
    for text in ["phi[f1] phi[f3] phi[f3] phi[f5] phi[f2] phi[f1]",
                 "a[f1] a[f2] a[f4] adag[f4] adag[f2] adag[f1]",
                 "a[f2] phi[f3] adag[f1] phi[f2]"]:
        expr = opalgebra.parse_expression(text, registry)
        value, scale = workloads.pairing_sum(workloads.parse_letters(text), ip)
        assert abs(opalgebra.vacuum_expectation(expr, table) - value) <= 1e-12 * scale


def test_parse_complex_round_trips_cli_format():
    assert workloads.parse_complex("x = 1.5 - 2.25j") == complex(1.5, -2.25)
    assert workloads.parse_complex("0 + 0j") == 0j
    with pytest.raises(harness.RefereeError):
        workloads.parse_complex("no value")


def _expect_d1(seed, path):
    path.mkdir()
    return workloads.ExpectD1(seed, path)


def test_inputs_depend_only_on_seed(tmp_path):
    a, b, c = (_expect_d1(seed, tmp_path / name)
               for seed, name in ((5, "a"), (5, "b"), (6, "c")))

    def load(w):
        return json.loads(w.setup_config.read_text())

    assert load(a) == load(b) != load(c)
    assert [x.args[-1] for x in a.calls] == [x.args[-1] for x in b.calls]
    assert len(a.calls) == 8


def test_result_schema_lists_every_benchmark_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.PREDICTED_LAYER)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        units = dict(run.END_TO_END, **run.PER_LAYER)
        assert metric["unit"] == units[metric["name"]]
