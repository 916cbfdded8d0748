"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions went through
(visible with -s or in captured output); failures surface as ordinary
pytest assertion errors.  Seeds come from the bundled scenario files, so
re-running reproduces every number bit for bit.
"""

import json
import math
from fractions import Fraction as F

import pytest

from gathersim import experiments as ex
from gathersim.analysis import geometric_repeat_count, theorem5_bound
from gathersim.cli import (
    bundled_scenario_path,
    parse_scenario,
    render_report_csv,
    render_report_json,
    run_experiment,
)
from gathersim.engine import DECIDE_GATHERED, LOOK, position_at
from gathersim.policies import (
    OPPOSITE_DIRECTIONS,
    SAME_DIRECTION,
    gather_lambda_oracle,
)

pytestmark = pytest.mark.acceptance

WORKERS = 2


def bundled(name, **overrides):
    raw = json.loads(bundled_scenario_path(name).read_text())
    for key, value in overrides.items():
        if isinstance(value, dict):
            raw.setdefault(key, {}).update(value)
        else:
            raw[key] = value
    return parse_scenario(json.dumps(raw))


def report(name, workers=WORKERS, **overrides):
    return run_experiment(bundled(name, **overrides), workers=workers)


def ok(num, label):
    print(f"[acceptance] criterion {num:2d} ({label}): PASS")


def test_criterion_01_simultaneous_midpoint():
    rep = report("thm1_gamma0")
    stats = rep.summary["stats"]
    n = stats["trials"]
    assert n == 100_000
    freq = stats["gathered"] / n
    p = 1 / 9
    tol = 3 * math.sqrt(p * (1 - p) / n)
    assert abs(freq - p) <= tol, (freq, tol)
    ok(1, f"midpoint freq {freq:.4f} within 1/9 +- {tol:.4f}")


def test_criterion_02_thm1_positive_probability():
    rep = report("thm1_positive")
    extras = rep.summary["extras"]
    assert extras["variant_trials"] == [100_000] * 5
    assert all(g > 0 for g in extras["variant_gathered"]), extras
    ok(2, f"gathers per schedule {extras['variant_gathered']}")


def test_criterion_03_ssync_exact_halving():
    scn = bundled("ssync_halving")
    out = ex.run_one_trial(scn, 0)
    looks = [e for e in out.trace.events if e.kind == LOOK]
    assert len(looks) == 51
    for k, e in enumerate(looks):
        seen = abs(e.payload["observed"][0] - e.payload["own"])
        assert seen == F(1, 2 ** k), (k, seen)
        assert seen != 0
    assert not out.trace.gathered
    ok(3, "distances delta/2^k exact for k <= 50, never zero")


def test_criterion_04_thm3_oracle_exactness():
    configs = [(F(1), OPPOSITE_DIRECTIONS), (F(2), OPPOSITE_DIRECTIONS),
               (F(5, 3), OPPOSITE_DIRECTIONS), (F(3), SAME_DIRECTION),
               (F(5, 3), SAME_DIRECTION)]
    for alpha, geometry in configs:
        lam = gather_lambda_oracle(alpha, geometry)
        tr = ex.catch_trial(alpha, geometry)
        assert tr.gathered, (alpha, geometry)
        decides = [e for e in tr.events if e.kind == DECIDE_GATHERED]
        meet = lam * F(1)  # chooser starts at 0, distance 1
        assert decides[0].payload["position"] == meet
        t = decides[0].time
        assert position_at(tr.runs[0], t) == position_at(tr.runs[1], t) == meet

    rep = report("thm3_oracle")
    extras = rep.summary["extras"]
    assert extras["oracle_gathered"] == extras["oracle_runs"] == 5
    assert extras["random_runs"] == 50_000
    assert extras["random_decides"] == 0
    ok(4, "oracle lambdas collocate exactly; 10^4 random draws per config: 0 gatherings")


def test_criterion_05_lemma2_attempt_success_rate():
    rep = report("lemma2")
    stats = rep.summary["stats"]
    n = stats["n_attempts"]
    assert n >= 10_000, n
    rate = float(stats["mean_attempt_success_rate"])
    floor = 2 / 9 - 3 * math.sqrt((2 / 9) * (7 / 9) / 10_000)
    assert rate >= floor, (rate, floor)
    ok(5, f"attempt success {rate:.3f} >= 2/9 - 0.0125 over {n} attempts")


def test_criterion_06_lemma3_looks_per_phase():
    rep = report("lemma3")
    stats = rep.summary["stats"]
    n = stats["n_phases"]
    assert n >= 1_000, n
    mean = float(stats["mean_looks_per_phase"])
    hw = float(stats["halfwidth_3sigma"]["mean_looks_per_phase"])
    assert mean <= 18 + hw, (mean, hw)
    ok(6, f"looks per phase {mean:.2f} <= 18 + {hw:.2f} over {n} phases")


def test_criterion_07_thm5_look_bound():
    for ratio in (4, 64, 1024):
        rep = report(f"thm5_{ratio}")
        stats = rep.summary["stats"]
        assert stats["gathered"] == stats["trials"] == 1000, ratio
        mean = float(stats["mean_total_looks"])
        hw = float(stats["halfwidth_3sigma"]["mean_total_looks"])
        bound = theorem5_bound(F(ratio), F(1))
        assert mean <= bound + hw, (ratio, mean, bound)
        ok(7, f"delta/tau={ratio}: mean looks {mean:.1f} <= {bound:.0f} + {hw:.2f}, "
              f"all gathered within {10 * int(bound)} looks")


def test_criterion_08_thm6_adaptive_impossibility():
    rep = report("thm6_adaptive")
    stats = rep.summary["stats"]
    extras = rep.summary["extras"]
    assert stats["trials"] == 1000
    assert stats["gathered"] == 0
    assert stats["gathered_fraction"] == "0"
    assert extras["midmove_ok_all"] is True
    assert extras["total_violations"] == 0
    ok(8, "1000 seeds x 200 cycles: zero gatherings, every later look mid-move")


def test_criterion_09_lemma1_projection_equivalence():
    rep = report("lemma1_projection", workers=1)
    extras = rep.summary["extras"]
    assert rep.summary["stats"]["trials"] == 100
    assert extras["equal_trials"] == 100
    ok(9, "100 random 2D scenarios: event-time distances equal exactly")


def test_criterion_10_thm4_one_uncontrolled_robot():
    for alpha, ratio in ((F(1), F(1, 2)), (F(2), F(2, 3))):
        rep = report("thm4_one_free", params={"alphas": [str(alpha)]})
        stats = rep.summary["stats"]
        assert stats["trials"] == 100_000
        assert stats["gathered"] > 0
        hist = {int(k): v for k, v in stats["k_histogram"].items()}
        modal = max(hist, key=hist.get)
        c, d = F(13, 20), F(1)
        predicted = ex.repeat_count_general(c, d, ratio)
        if alpha == 1:
            assert predicted == geometric_repeat_count(c, d)
        assert modal == predicted, (alpha, hist)
        ok(10, f"alpha={alpha}: gathered {stats['gathered']}/10^5, "
               f"modal halvings {modal} == predicted {predicted}")


def test_criterion_11_multirobot_pipeline():
    rep = report("multirobot_n8", workers=1)
    stats = rep.summary["stats"]
    extras = rep.summary["extras"]
    assert stats["trials"] == 100
    assert stats["gathered"] == 100  # single entity of multiplicity 8 everywhere
    assert extras["tie_trials"] == 100
    assert extras["tie_resolved"] >= 99  # within 10*log2(8) = 30 rounds
    ok(11, f"100 pipelines ended in one entity; ties resolved "
           f"{extras['tie_resolved']}/100 within 30 rounds")


def test_criterion_12_bundled_scenarios_byte_identical():
    shrink = {
        "thm1_gamma0": {"trials": 50},
        "thm1_positive": {"trials": 20},
        "thm3_oracle": {"params": {"random_draws": 20}},
        "thm4_one_free": {"trials": 25},
        "lemma2": {"trials": 30},
        "lemma3": {"trials": 30},
        "thm5_4": {"trials": 10},
        "thm5_64": {"trials": 10},
        "thm5_1024": {"trials": 5},
        "thm6_adaptive": {"trials": 4, "budgets": {"max_total_looks": 80}},
        "ssync_halving": {},
        "lemma1_projection": {"trials": 20},
        "multirobot_n8": {"trials": 20, "params": {"tie_trials": 10}},
    }
    for name, overrides in shrink.items():
        scn = bundled(name, **overrides)
        a = run_experiment(scn)
        b = run_experiment(scn)
        assert render_report_json(a) == render_report_json(b), name
        assert render_report_csv(a) == render_report_csv(b), name
    ok(12, f"{len(shrink)} scenarios re-run byte-identically")
