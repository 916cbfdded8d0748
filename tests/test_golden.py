"""Cross-build golden digests: reports and traces must not change.

Criterion 12 only checks that two runs of one build agree.  These
SHA-256 digests pin the bytes of ``report.json``, ``trials.csv`` and every
trace file, so a performance or refactoring change that alters any output
fails here.  Re-record them only for a change meant to alter the reports.
"""

import hashlib
import json

import pytest

from gathersim.cli import bundled_scenario_path, emit_report, parse_scenario, run_experiment

# name -> (overrides, trace policy, {file name: sha256}); the trace files
# are digested jointly as "<file name> <sha256>" lines in name order.
GOLDEN = {
    "thm6_adaptive": (
        {"trials": 4, "budgets": {"max_total_looks": 80}}, "all", {
            "report.json": "6e34ae15006603d1fd5edf8fb750d987aa48aa6640314888f31c391ced7c268a",
            "trials.csv": "6b6c605376d2035b491de14df9649dc728a7a871fce0ae59e53d60f67ed9df09",
            "traces": "591f62eabc93d3c4f4c965350669bf02adda8ce72201088ea1485df9012cfbdf",
        }),
    "thm5_1024": (
        {"trials": 5}, "all", {
            "report.json": "150acc8efafa3c7cdb68fd6284c85c590938f4bd528f3544b8505cac99119ba4",
            "trials.csv": "ea3b0be6467802eabfde29f6dfea462277f5ab26bb5333e741b162a837966cb3",
            "traces": "85697ac058d4e018c217d117e81290727a31f76f7f5760435597ce79bb162827",
        }),
    "thm1_positive": (
        {"trials": 20}, "none", {
            "report.json": "5667e9fd3f9eb702368ccf14a3f3686d73fe95f00e1ef33328aee56f851f0672",
            "trials.csv": "a03ac289d315880b850fe61536df2182ba43e5cfce96123df18625770b2222f2",
            "traces": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(name, overrides, trace_policy, out_dir) -> dict:
    raw = json.loads(bundled_scenario_path(name).read_text())
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    report = run_experiment(parse_scenario(json.dumps(raw)), trace_policy=trace_policy)
    emit_report(report, "both", out_dir)
    trace_dir = out_dir / f"{name}.traces"
    traces = sorted(trace_dir.iterdir()) if trace_dir.is_dir() else []
    joint = "".join(f"{p.name} {_sha(p.read_bytes())}\n" for p in traces)
    return {
        "report.json": _sha((out_dir / f"{name}.report.json").read_bytes()),
        "trials.csv": _sha((out_dir / f"{name}.trials.csv").read_bytes()),
        "traces": _sha(joint.encode()),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    overrides, trace_policy, expected = GOLDEN[name]
    assert output_digests(name, overrides, trace_policy, tmp_path) == expected
