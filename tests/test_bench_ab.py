"""``tools/bench_ab.py`` on canned ``perfbench/run.py`` output: the runs it
records, the statistics it derives and the BENCH document it writes."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BETTER = {"wall_s": "lower", "success_ratio": "higher"}
#: The probe before each canned pair: a second CPU free in pairs 0 and 2.
PROBES = [{"one_s": 0.2, "two_s": two, "ratio": two / 0.2} for two in (0.21, 0.4, 0.22, 0.38)]


def run_output(source, wall, success=1.0):
    """What ``run.py --trace 0`` prints: environment, tally, result."""
    environment = {"workload": "verify_all", "seed": 31, "commit": None,
                   "source_sha256": source, "nproc": 2, "python": "3.11.7",
                   "numpy": "2.4.6", "cpu_model": "test cpu"}
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "success_ratio": {"value": success, "unit": "ratio"}}}
    return "\n".join([bench_ab.ENVIRONMENT_PREFIX + json.dumps(environment),
                      "# 8 passes, 9 invocations, 0 failed", json.dumps(result)]) + "\n"


@pytest.fixture
def runs():
    walls = {"base": [1.2, 1.0, 1.4, 1.1], "head": [0.8, 0.9, 1.5, 0.7]}
    out = []
    for pair in range(4):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for position, side in enumerate(order):
            run, env = bench_ab.record("verify_all", 31 + pair, pair, side, position,
                                       0.07, PROBES[pair],
                                       run_output(side, walls[side][pair]))
            assert env["source_sha256"] == side
            out.append(run)
    return out


def test_record_keeps_the_run_and_its_metric_values(runs):
    assert runs[0] == {
        "workload": "verify_all", "seed": 31, "pair": 0, "side": "base", "order": 0,
        "calibration_s": 0.07, "probe": PROBES[0],
        "correct": True, "attempted": 9, "failed": 0,
        "metrics": {"wall_s": 1.2, "success_ratio": 1.0},
    }
    assert [(r["side"], r["order"]) for r in runs[2:4]] == [("head", 0), ("base", 1)]


def test_summary_medians_quartiles_and_pairs_won(runs):
    entry = bench_ab.summarize(runs, BETTER)["verify_all"]
    assert entry["pairs"] == 4
    wall = entry["metrics"]["wall_s"]
    # statistics.quantiles(n=4) of 1.0, 1.1, 1.2, 1.4 and of 0.7, 0.8, 0.9, 1.5
    assert wall["base"]["median"] == pytest.approx(1.15)
    assert (wall["base"]["q1"], wall["base"]["q3"]) == pytest.approx((1.025, 1.35))
    assert wall["head"]["median"] == pytest.approx(0.85)
    assert wall["head"]["iqr"] == pytest.approx(1.35 - 0.725)
    assert wall["change"] == pytest.approx(0.85 / 1.15 - 1)
    assert wall["head_better_pairs"] == 3  # lower is better; pair 2 lost
    assert entry["metrics"]["success_ratio"]["head_better_pairs"] == 0
    # one probe per pair: ratios 1.05, 2.0, 1.1, 1.9
    probe = entry["probe_ratio"]
    assert probe["median"] == pytest.approx(1.5)
    assert (probe["q1"], probe["q3"]) == pytest.approx((1.0625, 1.975))


def test_bench_document_round_trips_through_json(runs, tmp_path):
    sides = {"base": {"rev": "HEAD", "commit": "abc", "source_sha256": "base"},
             "head": {"rev": "WORKTREE", "commit": "WORKTREE", "source_sha256": "head"}}
    environment = {"python": "3.11.7", "numpy": "2.4.6", "blas": {"name": "openblas"},
                   "cpu_model": "test cpu"}
    document = bench_ab.bench_document("test", sides, runs, environment, BETTER, 6.0)
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(document))
    loaded = json.loads(path.read_text())
    assert loaded["label"] == "test" and loaded["sides"] == sides
    assert (loaded["python"], loaded["numpy"], loaded["blas"]) == (
        "3.11.7", "2.4.6", {"name": "openblas"})
    assert isinstance(loaded["cpu_count"], int) and loaded["seconds"] == 6.0
    assert loaded["runs"] == runs
    assert loaded["summary"]["verify_all"]["pairs"] == 4
    report = bench_ab.report(loaded["summary"])
    assert report.splitlines()[0] == "verify_all (4 pairs; two loops / one loop 1.50 [0.91])"
    assert "-26.1%" in report and "3/4" in report


def fake_extract(rev, dest):
    """An extracted tree whose package has 3 lines at the base, 5 at the head."""
    package = dest / "src" / "kgf"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n" * 2)
    (package / "b.py").write_text("y = 2\n" * (1 if dest.name == "base" else 3))
    (package / "notes.txt").write_text("not counted\n")
    return rev


def test_src_lines_totals_the_packages_newlines(tmp_path):
    fake_extract("HEAD", tmp_path / "head")
    (tmp_path / "head" / "src" / "kgf" / "c.py").write_text("z = 3")  # no newline
    assert bench_ab.src_lines(tmp_path / "head") == 5
    sides = {"base": {"src_lines": 3}, "head": {"src_lines": 5}}
    assert bench_ab.size_change(sides) == "src/kgf/*.py: 3 -> 5 lines (+2)"


def test_main_takes_run_length_from_the_benchmark(monkeypatch, tmp_path, capsys):
    """Every run lasts BENCHMARK.json's ``run_seconds``; every workload
    gets ``PAIRS`` pairs from ``BASE_SEED`` on, and the side that goes
    first alternates.  Both trees' source lines are recorded and printed."""
    benchmark = (bench_ab.ROOT / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(benchmark)
    monkeypatch.setattr(bench_ab, "ROOT", tmp_path)
    monkeypatch.setattr(bench_ab, "extract", fake_extract)
    monkeypatch.setattr(bench_ab, "timed_pass", lambda: 0.07)
    monkeypatch.setattr(bench_ab, "blas_info", lambda: None)
    probes = iter(range(100))
    monkeypatch.setattr(bench_ab, "parallel_probe",
                        lambda: {"one_s": 1.0, "two_s": 1.0, "ratio": next(probes)})
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        value = {flag: cmd[cmd.index(flag) + 1] for flag in ("--workload", "--seed", "--seconds")}
        calls.append((Path(cwd).name, value))
        return subprocess.CompletedProcess(cmd, 0, stdout=run_output(Path(cwd).name, 1.0))

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    assert bench_ab.main(["--label", "t", "--workdir", str(tmp_path)]) == 0
    seconds = json.loads(benchmark)["run_seconds"]
    assert {value["--seconds"] for _, value in calls} == {str(seconds)}
    verify = [(side, int(value["--seed"])) for side, value in calls
              if value["--workload"] == "verify_all"]
    assert len(verify) == 2 * bench_ab.PAIRS == 20
    assert verify[:4] == [("base", bench_ab.BASE_SEED), ("head", bench_ab.BASE_SEED),
                          ("head", bench_ab.BASE_SEED + 1), ("base", bench_ab.BASE_SEED + 1)]
    for workload in ("expect_d1", "kernels_d23", "sample_stream"):
        assert sum(value["--workload"] == workload for _, value in calls) == 2 * bench_ab.PAIRS
    document = json.loads((tmp_path / "BENCH_t.json").read_text())
    # one probe before each pair, shared by both of its runs
    probes = [(run["workload"], run["pair"], run["probe"]["ratio"]) for run in document["runs"]]
    assert probes[:4] == [("expect_d1", 0, 0), ("expect_d1", 0, 0),
                          ("expect_d1", 1, 1), ("expect_d1", 1, 1)]
    assert sorted({ratio for *_, ratio in probes}) == list(range(len(probes) // 2))
    assert document["seconds"] == seconds
    assert {entry["pairs"] for entry in document["summary"].values()} == {bench_ab.PAIRS}
    assert [document["sides"][side]["src_lines"] for side in ("base", "head")] == [3, 5]
    assert "src/kgf/*.py: 3 -> 5 lines (+2)" in capsys.readouterr().out.splitlines()
    assert list(tmp_path.glob("bench_ab_*")) == []


def test_parallel_probe_times_one_loop_then_two(monkeypatch):
    monkeypatch.setattr(bench_ab, "PROBE_LOOP", "pass")
    probe = bench_ab.parallel_probe()
    assert set(probe) == {"one_s", "two_s", "ratio"}
    assert probe["one_s"] > 0 and probe["ratio"] == probe["two_s"] / probe["one_s"]


def test_a_failing_probe_raises(monkeypatch):
    monkeypatch.setattr(bench_ab, "PROBE_LOOP", "raise SystemExit(3)")
    with pytest.raises(RuntimeError, match="probe failed"):
        bench_ab.parallel_probe()
