"""The benchmark's workloads and the invariants their reports must satisfy.

Each workload is a bundled scenario with only `trials` and `master_seed`
changed; every other field stays as shipped.  Why each one was chosen is
in README.md.  This module imports nothing from gathersim, so the set-up
probe can load it before it starts timing the package import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    # `trials` field per size; "bench" is measured, "smoke" is the tiny size
    # the golden check and the benchmark's own tests run.
    trials: dict
    trace_policy: str
    # Span names that must record calls in a traced run of this workload.
    active_spans: tuple
    # Schedule variants in the scenario; each runs `trials` trials.
    variants: int = 1

    def total_trials(self, size: str) -> int:
        return self.trials[size] * self.variants


_CORE_SPANS = ("cli.parse", "cli.run_experiment", "cli.emit", "experiments.trial",
               "engine.run", "adversary.wait", "adversary.delay", "policies.sample",
               "policies.destination", "rational.parse", "rational.rng")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="short_batch",
            scenario="thm1_positive",
            trials={"bench": 200, "smoke": 20},
            trace_policy="none",
            active_spans=_CORE_SPANS + ("adversary.build", "policies.build"),
            variants=5,
        ),
        Workload(
            name="adaptive_long",
            scenario="thm6_adaptive",
            trials={"bench": 2, "smoke": 1},
            trace_policy="none",
            active_spans=_CORE_SPANS + ("analysis.midmove",),
        ),
        Workload(
            name="segmented_traced",
            scenario="thm5_1024",
            trials={"bench": 100, "smoke": 10},
            trace_policy="all",
            active_spans=_CORE_SPANS + ("adversary.build", "policies.build",
                                        "cli.trace_json", "analysis.segment",
                                        "analysis.distance"),
        ),
    )
}


def default_seed(cli, workload: Workload) -> int:
    """The `master_seed` of the bundled scenario file."""
    return _bundled(cli, workload)["master_seed"]


def scenario_text(cli, workload: Workload, seed: int, size: str) -> str:
    """Scenario JSON for one batch: the bundled file with trials and seed set."""
    raw = _bundled(cli, workload)
    raw["trials"] = workload.trials[size]
    raw["master_seed"] = seed
    return json.dumps(raw)


def _bundled(cli, workload: Workload) -> dict:
    path = cli.bundled_scenario_path(workload.scenario)
    return json.loads(path.read_text(encoding="utf-8"))


def check_report(workload: Workload, size: str, summary: dict) -> list[str]:
    """Invariants of one batch's report.json that hold at every seed."""
    stats, extras = summary["stats"], summary["extras"]
    errors = []
    if stats["trials"] != workload.total_trials(size):
        errors.append(f"report has {stats['trials']} trials, expected "
                      f"{workload.total_trials(size)}")
    if workload.name == "short_batch":
        if len(set(extras["variant_trials"])) != 1:
            errors.append(f"unequal variant_trials {extras['variant_trials']}")
        if not all(g > 0 for g in extras["variant_gathered"]):
            errors.append(f"a variant never gathered: {extras['variant_gathered']}")
    elif workload.name == "adaptive_long":
        if stats["gathered"] != 0:
            errors.append(f"adaptive adversary let {stats['gathered']} trials gather")
        if extras["midmove_ok_all"] is not True:
            errors.append("a look did not see the other robot mid-move")
        if extras["total_violations"] != 0:
            errors.append(f"{extras['total_violations']} mid-move violations")
    elif workload.name == "segmented_traced":
        if stats["gathered"] != stats["trials"]:
            errors.append(f"only {stats['gathered']} of {stats['trials']} trials gathered")
        limit = (float(extras["theorem5_bound"])
                 + float(stats["halfwidth_3sigma"]["mean_total_looks"]))
        if float(stats["mean_total_looks"]) > limit:
            errors.append(f"mean looks {stats['mean_total_looks']} above the "
                          f"Theorem 5 bound plus half-width ({limit})")
    return errors
