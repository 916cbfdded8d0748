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

# key -> (overrides, trace policy, {file name: sha256}); the trace files
# are digested jointly as "<file name> <sha256>" lines in name order.  A
# key is the bundled scenario's name, with a ".<trace policy>" suffix for a
# second entry of one scenario.
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
    "thm1_positive.failed": (
        {"trials": 20}, "failed", {
            "report.json": "5667e9fd3f9eb702368ccf14a3f3686d73fe95f00e1ef33328aee56f851f0672",
            "trials.csv": "a03ac289d315880b850fe61536df2182ba43e5cfce96123df18625770b2222f2",
            "traces": "8191315abc2782793321843740b37a4087bab54a4d80bcbf7105d0789a8cd4fb",
        }),
    "thm1_positive.all": (
        {"trials": 20}, "all", {
            "report.json": "5667e9fd3f9eb702368ccf14a3f3686d73fe95f00e1ef33328aee56f851f0672",
            "trials.csv": "a03ac289d315880b850fe61536df2182ba43e5cfce96123df18625770b2222f2",
            "traces": "b3b38dc000f9471f0178ce7e6da1adf45bc316f928995537d4fb2514c2966a62",
        }),
    "thm1_gamma0": (
        {"trials": 200}, "all", {
            "report.json": "3b69f82f39889324c34cf8714327a4293d377e4034945ac72354ae3d53d2f0b7",
            "trials.csv": "9eab5789e2264b281bc0dd542b2f04554791130c323eb3cc0bcf9c1a8a74dac7",
            "traces": "6d187f5be2ffcd7dcda7fe8cb3c05a46efd23a2486f62210f5799a2c14620635",
        }),
    "lemma2": (
        {"trials": 50}, "all", {
            "report.json": "1c97b79010cd665a6668528f0ac9f1bbc84f59c42df8c5827920a275b3f2e455",
            "trials.csv": "0bcc92d6058458269a8acb3337d76204c3584a363bf8316a05e3449b93e0b393",
            "traces": "64cbb8d60ba601d321a1061f0f5a2cd09c0f4b5e4d046fbc0a95fe50a1cdeb83",
        }),
    "lemma3": (
        {"trials": 50}, "all", {
            "report.json": "ff19374cc1216c8ba0df636ad60d074bdd3dee2e621ad8b81034d907f0d659dc",
            "trials.csv": "5fd7ec047c5c81223cda1fa16364be3b4e875fcbf32ade13a78022b5a4bd5a70",
            "traces": "2b0863403462429e63557eba539f05a6e5b45d9aef09213578574b4a3d7767b0",
        }),
    "thm5_4": (
        {"trials": 20}, "all", {
            "report.json": "c4aa673d0ff4604e585330514e19614043be5504be921f6e3c9a36fd747cad10",
            "trials.csv": "e284e77cb068647526b36ecddf1323f310f8ebda34fae70e0ab715b22ef043f4",
            "traces": "2396f11f88a5f598d2c93c5d7d59690e721d2d5d63e528005245f7f8725bca31",
        }),
    "thm5_64": (
        {"trials": 8}, "all", {
            "report.json": "c9d16ddfce60a895b49e1792bc2599939c783a59bbb559ca49d1c545dbd63a7c",
            "trials.csv": "98deaff0f8333843c09aefb64540f0718d5970f0bda4b77b98b817d969db4ceb",
            "traces": "68e2dfc8720eee1122becf0281a1356f4294cf8881946e8eeaeb347fc737065c",
        }),
    "thm4_one_free": (
        {"trials": 25}, "all", {
            "report.json": "1cef5e898f61d909d196d651b564ec974c91543a6f1dd6e5510c5e47bce7e1ba",
            "trials.csv": "ad8ca520273c6f5c075430b241ef87ca94f066bb36f1639044c4af83d28bf6a8",
            "traces": "166b19af481a156cf18a85deab846edda117b2c45098c528d8f44745ee174130",
        }),
    "ssync_halving": (
        {}, "all", {
            "report.json": "64f939341c8eec867627f99f97f4d57cb6ead23dc43072151ee61918ccf59c44",
            "trials.csv": "7a98ceb40d99ab2e263d4796e1998933c86e42a5acb75abfb57c3e5067bf725a",
            "traces": "b8ee0e25a81e9c875124bed3229b01d9fa019d448d2b0f13157e1c48825c3cb3",
        }),
    "thm3_oracle": (
        {"params": {"random_draws": 20}}, "all", {
            "report.json": "9ae26da044534d9a0b52d8807e166e2134b5825f2e671614b06c8f74ebc73229",
            "trials.csv": "a5ccb9e2d95e544b98fed1a9b658f9e95d3cf5862212f2f4d2f2ed41ff1d3c54",
            "traces": "c322f70a68091bca2170835b1ca6fd5d869a1080711bebce3a8c237e03bd92eb",
        }),
    "lemma1_projection": (
        {"trials": 20}, "all", {
            "report.json": "5d81f04a29f8e1cb2370ea9d62554020aa0dd838721378f5c2db0347f55c05aa",
            "trials.csv": "5cedb92a567634a46ea2bfef8a48e0a0fdf3550b017c486e8164406c5c0f36a0",
            "traces": "6e612b98a811b7f8fc64a11d072a285529dd779f59c99d29b9d37bb32ce85ec8",
        }),
    "multirobot_n8": (
        {"trials": 20, "params": {"tie_trials": 10}}, "all", {
            "report.json": "eb23f03f451ab68f37a678477d2752d67f732601094eb83158255f859eb1d45c",
            "trials.csv": "03bf16fd85cde67abfb78e3e424177bb82f27cc39a36263012b7a4c6b9ba6214",
            "traces": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(name, overrides, trace_policy, out_dir, workers=1) -> dict:
    raw = json.loads(bundled_scenario_path(name).read_text())
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    report = run_experiment(parse_scenario(json.dumps(raw)), workers=workers,
                            trace_policy=trace_policy)
    emit_report(report, "both", out_dir)
    trace_dir = out_dir / f"{name}.traces"
    traces = sorted(trace_dir.iterdir()) if trace_dir.is_dir() else []
    joint = "".join(f"{p.name} {_sha(p.read_bytes())}\n" for p in traces)
    return {
        "report.json": _sha((out_dir / f"{name}.report.json").read_bytes()),
        "trials.csv": _sha((out_dir / f"{name}.trials.csv").read_bytes()),
        "traces": _sha(joint.encode()),
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digests(key, tmp_path):
    overrides, trace_policy, expected = GOLDEN[key]
    name = key.partition(".")[0]
    assert output_digests(name, overrides, trace_policy, tmp_path) == expected


def test_golden_digests_with_workers(tmp_path):
    # Workers receive the compiled scenario pickled and send trace text
    # and each trial's shares of the report's stats and extras back (the
    # k histogram of thm4, the attempt and phase samples of a segmented
    # run); the bytes must not change.
    for name in ("thm1_positive", "thm5_1024", "thm3_oracle", "thm6_adaptive",
                 "multirobot_n8", "thm4_one_free", "lemma2"):
        overrides, trace_policy, expected = GOLDEN[name]
        assert output_digests(name, overrides, trace_policy, tmp_path / name,
                              workers=2) == expected
