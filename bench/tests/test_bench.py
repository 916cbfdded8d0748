"""Smoke tests for the benchmark itself, at the tiny `smoke` size.

Run from the repository root:
    python3 -m pytest -q -p no:cacheprovider bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_and_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert result["metrics"]["passed_share"]["value"] == 1.0
        assert result["metrics"]["trials_per_s"]["value"] > 0


@pytest.fixture
def session(tmp_path):
    cli = run.load_cli()
    return lambda name: run.Session(cli, WORKLOADS[name], tmp_path / name)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_outputs_match(session, workload):
    s = session(workload)
    golden = json.loads(run.GOLDEN.read_text())[workload]
    plain = s.batch(golden["seed"], "smoke")
    traced = s.batch(golden["seed"], "smoke", run.new_tracer())
    assert plain is not None and traced is not None, s.errors
    assert traced.digests == plain.digests
    assert s.same_bytes(plain, golden["smoke"], "golden")
    assert traced.layers["engine.run_calls"] == WORKLOADS[workload].total_trials("smoke")


def test_tracer_restores_every_patch():
    run.load_cli()
    modules = {n: m for n, m in sys.modules.items() if n.startswith("gathersim")}
    adversary = modules["gathersim.adversary"]
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    t = run.new_tracer()
    t.install()
    try:
        assert hasattr(modules["gathersim.experiments"].run, "__wrapped__")
        assert hasattr(modules["gathersim.engine"].destination, "__wrapped__")
        assert hasattr(adversary.AdaptiveThm6.wait_time, "__wrapped__")
    finally:
        t.restore()
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert after == before
    assert not hasattr(adversary.AdaptiveThm6.wait_time, "__wrapped__")


def test_missing_traced_function_fails_install(monkeypatch):
    run.load_cli()
    monkeypatch.setattr(tracer_mod, "FUNCTION_SPANS",
                        tracer_mod.FUNCTION_SPANS + (("x.y", "gathersim.cli", "gone"),))
    with pytest.raises(tracer_mod.TraceSetupError):
        run.new_tracer().install()
    assert not hasattr(sys.modules["gathersim.cli"].parse_scenario, "__wrapped__")


def test_silent_layer_fails_traced_run(monkeypatch, capsys):
    wl = WORKLOADS["short_batch"]
    monkeypatch.setitem(WORKLOADS, "short_batch", dataclasses.replace(
        wl, active_spans=wl.active_spans + ("analysis.segment",)))
    code = run.main(["--workload", "short_batch", "--seconds", "0", "--trace", "1",
                     "--size", "smoke"])
    result = last_json(capsys.readouterr().out)
    assert code == 1 and result["correct"] is False and result["failed"] > 0


def test_failed_invariant_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "check_report", lambda *a: ["injected failure"])
    code = run.main(["--workload", "adaptive_long", "--seconds", "0", "--trace", "0",
                     "--size", "smoke"])
    result = last_json(capsys.readouterr().out)
    assert code == 1 and result["correct"] is False
    assert result["metrics"]["passed_share"]["value"] < 1.0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "short_batch", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(1, 20))) == (50.0, 10)
    assert run.tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert run.tail_percentile(list(range(1, 1001))) == (99.0, 990)
