"""Two-robot set-ups run in a dyadic unit; everything a run reports is in the scenario's.

``experiments.run_setup`` counts a set-up's times and positions in a unit K
times finer than the scenario's, K the odd part of the least common
multiple of their denominators, so that every scenario value is dyadic.
Each scenario here is run twice: as compiled, and with its set-ups compiled
in the scenario's unit (``dyadic_unit`` patched to return 1).  Trace text,
event views, trial outcomes, CSV rows and reports must be equal.
"""

import json
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_experiments import patch_every_binding

from gathersim import engine, experiments, rational
from gathersim.adversary import (ObliviousExplicit, ObliviousGenerated, PerRobot,
                                 TauBounded)
from gathersim.cli import (bundled_scenario_names, bundled_scenario_path, parse_scenario,
                           render_report_csv, render_report_json, run_experiment,
                           trace_to_jsonable)
from gathersim.engine import Budgets, RobotSpec
from gathersim.policies import THREE_CHOICE
from gathersim.rational import ONE, Rat, spawn_rng

TWO_ROBOT_MODES = ("two_robot", "ssync", "thm4", "thm6")


def _raw(name: str) -> dict:
    return json.loads(bundled_scenario_path(name).read_text())


TWO_ROBOT = [name for name in bundled_scenario_names()
             if _raw(name).get("mode", "two_robot") in TWO_ROBOT_MODES]


def _compiled_and_plain(monkeypatch, raw: dict):
    """The scenario as compiled, and compiled in the scenario's own unit."""
    text = json.dumps(raw)
    compiled = parse_scenario(text)
    with monkeypatch.context() as m:
        m.setattr(experiments, "dyadic_unit", lambda *setup: ONE)
        plain = parse_scenario(text)
    assert all(setup.unit == 1 for setup in plain.setups)
    return compiled, plain


def _assert_same_output(compiled, plain) -> None:
    for trial in range(experiments.total_trials(compiled)):
        a = experiments.run_one_trial(compiled, trial)
        b = experiments.run_one_trial(plain, trial)
        assert a.trace.unit == compiled.setups[trial // compiled.trials].unit
        assert trace_to_jsonable(a.trace) == trace_to_jsonable(b.trace), trial
        assert a.trace.events == b.trace.events, trial
        a.trace = b.trace = None
        assert a == b, trial
    reports = [run_experiment(scn, trace_policy="all") for scn in (compiled, plain)]
    assert render_report_csv(reports[0]) == render_report_csv(reports[1])
    assert render_report_json(reports[0]) == render_report_json(reports[1])
    assert reports[0].traces == reports[1].traces


SMALL = {"thm6_adaptive": {"trials": 2, "budgets": {"max_total_looks": 80}},
         "thm5_1024": {"trials": 5}}


@pytest.mark.parametrize("name", TWO_ROBOT)
def test_bundled_scenario_is_unchanged_by_its_unit(monkeypatch, name):
    raw = {**_raw(name), "trials": 12, **SMALL.get(name, {})}
    compiled, plain = _compiled_and_plain(monkeypatch, raw)
    _assert_same_output(compiled, plain)


def test_ssync_halving_is_read_in_the_scenario_unit(monkeypatch):
    raw = {"name": "s", "mode": "ssync", "params": {"activations": 8, "delta": "2/3"}}
    compiled, plain = _compiled_and_plain(monkeypatch, raw)
    assert compiled.setups[0].unit == 3
    assert experiments.run_one_trial(compiled, 0).extras == {"halving_ok": True}
    _assert_same_output(compiled, plain)


def test_multirobot_is_unchanged_by_its_unit(monkeypatch):
    raw = _raw("multirobot_n8")
    raw = {**raw, "trials": 20, "params": {**raw["params"], "tie_trials": 2}}
    compiled, plain = _compiled_and_plain(monkeypatch, raw)
    assert compiled.setups[0].unit == 5
    # Where each trial's last pair meets, read back in the scenario's unit.
    meets, merge = [], experiments.merge_positions
    monkeypatch.setattr(experiments, "merge_positions",
                        lambda merged: meets.append(merged) or merge(merged))
    outcomes = [[experiments.run_one_trial(scn, trial) for trial in range(20)]
                for scn in (compiled, plain)]
    assert outcomes[0] == outcomes[1]
    assert len(meets) == 40 and meets[:20] == meets[20:]
    reports = [run_experiment(scn) for scn in (compiled, plain)]
    assert render_report_csv(reports[0]) == render_report_csv(reports[1])
    assert render_report_json(reports[0]) == render_report_json(reports[1])


def test_non_dyadic_bundled_scenarios_get_a_unit():
    # Waits of 3/10 (thm1), a tau of 1/5 (lemma2, lemma3, multirobot's last
    # pair) and thm4's fixed sum of 13/20 at each alpha.
    units = {name: [setup.unit for setup in parse_scenario(
        bundled_scenario_path(name).read_text()).setups]
        for name in ("thm1_positive", "lemma2", "lemma3", "thm4_one_free", "thm5_1024",
                     "multirobot_n8")}
    assert units == {"thm1_positive": [5] * 5, "lemma2": [5], "lemma3": [5],
                     "thm4_one_free": [5, 5], "thm5_1024": [1], "multirobot_n8": [5]}
    assert all(type(u) is Rat for us in units.values() for u in us)


# Drawn explicit schedules: times over denominators 3, 5, 7 and 10 (and
# dyadic ones), lambdas and speeds dyadic or not.
_DENOMINATORS = (1, 2, 4, 3, 5, 7, 10)
_time = st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 25), st.sampled_from(_DENOMINATORS))
_position = st.builds(lambda n, d: f"{n}/{d}", st.integers(-20, 20),
                      st.sampled_from(_DENOMINATORS))
_lambdas = st.lists(st.sampled_from(["1", "1/2", "0", "-1/4", "3/2", "3/4", "5/8", "1/3",
                                     "2/5"]),
                    min_size=1, max_size=3, unique=True)
_LOOKS = 10


def _policy(lambdas, uniform):
    if uniform:
        return {"kind": "THREE_CHOICE"}
    return {"kind": "FINITE_MIXTURE",
            "choices": [[lam, f"1/{len(lambdas)}"] for lam in lambdas]}


@settings(max_examples=40, deadline=None)
@given(starts=st.tuples(_position, _position),
       speeds=st.tuples(st.sampled_from(["1", "2", "1/2", "3"]),
                        st.sampled_from(["1", "1/4", "3/2"])),
       schedules=st.lists(st.lists(st.tuples(_time, _time), min_size=_LOOKS + 2,
                                   max_size=_LOOKS + 2), min_size=2, max_size=2),
       lambdas=_lambdas, uniform=st.booleans(),
       max_time=st.sampled_from(["1000", "7/3", "5", "29/10", "61/21"]),
       seed=st.integers(0, 2 ** 32))
def test_drawn_explicit_schedule_is_unchanged_by_its_unit(starts, speeds, schedules, lambdas,
                                                          uniform, max_time, seed):
    raw = {"name": "drawn", "trials": 3, "master_seed": seed,
           "budgets": {"max_total_looks": _LOOKS, "max_time": max_time},
           "policies": {"p": _policy(lambdas, uniform)},
           "robots": [{"id": rid, "start": start, "speed": speed, "policy": "p"}
                      for rid, (start, speed) in enumerate(zip(starts, speeds))],
           "adversary": {"kind": "OBLIVIOUS_EXPLICIT",
                         "schedules": {str(rid): seq for rid, seq in enumerate(schedules)}},
           "analysis": {"segment_attempts": True}}
    with pytest.MonkeyPatch.context() as monkeypatch:
        compiled, plain = _compiled_and_plain(monkeypatch, raw)
    values = [*starts, max_time, *(x for seq in schedules for pair in seq for x in pair)]
    odd = [F(x).denominator for x in values]
    expected = lcm(*(d >> ((d & -d).bit_length() - 1) for d in odd))
    assert compiled.setups[0].unit == expected
    _assert_same_output(compiled, plain)


def _unit_of(**fields) -> Rat:
    raw = {"name": "one", "budgets": {"max_total_looks": 8},
           "policies": {"p": {"kind": "THREE_CHOICE"}},
           "robots": [{"id": 0, "start": "1", "policy": "p"},
                      {"id": 1, "start": "0", "policy": "p"}],
           "adversary": {"kind": "OBLIVIOUS_EXPLICIT",
                         "schedules": {"0": [["3/10", "0"]] * 10, "1": [["1", "1/7"]] * 10}}}
    raw.update(fields)
    [setup] = parse_scenario(json.dumps(raw)).setups
    return setup.unit


def test_unit_ignores_speeds_and_lambdas():
    assert _unit_of() == 35
    # Scaling times and positions leaves speeds and lambdas as they are.
    assert _unit_of(robots=[{"id": 0, "start": "1", "speed": "3/2", "policy": "p"},
                            {"id": 1, "start": "0", "policy": "p"}]) == 35
    assert _unit_of(policies={"p": {"kind": "DETERMINISTIC", "lam": "1/3"}}) == 35
    assert _unit_of(policies={"p": {"kind": "ORACLE", "script": ["1/2", "1/3"]}}) == 35
    # The adaptive adversary's next wait is a literal 1 in the scenario's unit.
    assert _unit_of(adversary={"kind": "ADAPTIVE_THM6",
                               "initial_waits": {"0": "3/10", "1": "1"}}) == 1
    thm6 = parse_scenario(json.dumps({"name": "t", "mode": "thm6",
                                      "params": {"w_first": "3/10", "delta": "1/3"}}))
    assert thm6.setups[0].unit == 1
    # A unit past MAX_UNIT_BITS: the primes from 3 to 61 multiply to about 2**72.
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    wide = {"kind": "OBLIVIOUS_EXPLICIT",
            "schedules": {"0": [[f"1/{p}", "0"] for p in primes],
                          "1": [["1", "0"]] * len(primes)}}
    assert _unit_of(adversary=wide) == 1
    assert _unit_of(adversary={**wide, "schedules": {
        "0": [[f"1/{p}", "0"] for p in primes[:8]], "1": [["1", "0"]] * 8}}) == lcm(*primes[:8])


def _counting_gcd_in_run(monkeypatch) -> list:
    """Calls of rational's gcd made inside engine.run."""
    calls, inside = [], []
    real_gcd, real_run = rational.gcd, engine.run

    def counting_gcd(a, b):
        if inside:
            calls.append((a, b))
        return real_gcd(a, b)

    def counted_run(*args):
        inside.append(True)
        try:
            return real_run(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(rational, "gcd", counting_gcd)
    patch_every_binding(monkeypatch, real_run, counted_run)
    return calls


@pytest.mark.parametrize("name,trials", [("thm1_positive", range(0, 500, 5)),
                                         ("thm4_one_free", range(50)),
                                         ("multirobot_n8", range(20))])
def test_compiled_runs_make_no_gcd(monkeypatch, name, trials):
    # thm4_one_free's trials 0-49 are its alpha = 1 variant.
    raw = {**_raw(name), "trials": len(trials)}
    compiled, plain = _compiled_and_plain(monkeypatch, raw)
    calls = _counting_gcd_in_run(monkeypatch)
    for trial in trials:
        experiments.run_one_trial(compiled, trial)
    assert calls == []
    last = trials[-1]
    unscaled = experiments.run_trial(plain, plain.setups[last // plain.trials], last)
    assert calls  # the counter counts
    monkeypatch.undo()
    # The events a compiled run shows are those of its run in the scenario's unit.
    scaled = experiments.run_trial(compiled, compiled.setups[last // compiled.trials], last)
    assert scaled.events == unscaled.events


def test_direct_engine_runs_keep_the_scenario_unit():
    specs = [RobotSpec(0, F(1), F(1)), RobotSpec(1, F(0), F(1))]
    adversary = ObliviousExplicit({0: [(F(3, 10), F(0))] * 8, 1: [(F(1), F(0))] * 8})
    trace = engine.run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, adversary,
                       spawn_rng("unit"), Budgets(6, F(1000)))
    assert trace.unit == 1
    assert [e.time for e in trace.events][:2] == [F(3, 10), F(3, 10)]


@pytest.mark.parametrize("adversary", [
    ObliviousExplicit({0: [(Rat(3, 10), Rat(1, 7))] * 3, 1: [(Rat(0), Rat(2))] * 3}),
    ObliviousGenerated("uniform", (Rat(1, 3), Rat(2), Rat(0), Rat(1, 5)), 0),
    ObliviousGenerated("constant", (Rat(1, 3), Rat(1, 5)), 0),
    TauBounded(Rat(1, 5), 0),
    TauBounded(Rat(1, 2), 0, Rat(13, 20)),
    PerRobot({0: ObliviousGenerated("constant", (Rat(0), Rat(0)), 0),
              1: TauBounded(Rat(1, 2), 0, Rat(13, 20))}),
], ids=["explicit", "uniform", "constant", "tau", "tau_fixed_sum", "per_robot"])
def test_adversary_in_unit_draws_k_times_each_pair(adversary):
    k = Rat(35)
    scaled = adversary.in_unit(k)
    assert sorted(scaled.time_values()) == sorted(x * k for x in adversary.time_values())
    for seed in (0, 1, 99):
        plain, twin = adversary.for_trial(seed), scaled.for_trial(seed)
        for rid in (0, 1):
            for cycle in range(3):
                w, c = plain.next_delays(rid, cycle)
                assert twin.next_delays(rid, cycle) == (w * k, c * k)
