import json
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from oracles import is_mid_move

from gathersim import engine
from gathersim import experiments as ex
from gathersim import rational
from gathersim.cli import (bundled_scenario_names, bundled_scenario_path, main,
                           parse_scenario, run_experiment, trace_to_jsonable)
from gathersim.analysis import segment_attempts, segment_phases
from gathersim.adversary import AdaptiveThm6
from gathersim.engine import Budgets, DECIDE_GATHERED, LOOK, RobotSpec, position_at
from gathersim.multirobot import farthest_pairs
from gathersim.policies import OPPOSITE_DIRECTIONS, SAME_DIRECTION, THREE_CHOICE
from gathersim.rational import Rat, spawn_rng, u01

BIG = F(10 ** 9)


def scn(**kw):
    # A compiled scenario: ``params`` holds parsed values, defaults filled in.
    base = dict(master_seed=42, trials=1, params={}, setups=[])
    base.update(kw)
    return SimpleNamespace(**base)


def compiled(mode, **fields):
    return parse_scenario(json.dumps({"name": mode, "mode": mode, "master_seed": 42, **fields}))


def test_ssync_schedule_alternates_single_activations():
    sched = ex.ssync_schedule(6)
    out = ex.run_one_trial(compiled("ssync", params={"activations": 6}), 0)
    looks = [(e.time, e.robot_id) for e in out.trace.events if e.kind == LOOK]
    assert looks == [(F(10 * k), k % 2) for k in range(6)]
    assert out.extras["halving_ok"]
    assert len(sched[0]) >= 3 and len(sched[1]) >= 3


@pytest.mark.parametrize("delta", ["100", "30"])
def test_ssync_halving_holds_for_any_delta(delta):
    # The activation gap grows with delta, so every move ends before the
    # next activation and no wait is negative.
    scn = parse_scenario(json.dumps({"name": "ss", "mode": "ssync",
                                     "params": {"activations": 12, "delta": delta}}))
    assert run_experiment(scn).summary["extras"]["halving_ok"] is True


@pytest.mark.parametrize("alpha,geometry", [
    (F(1), OPPOSITE_DIRECTIONS),
    (F(2), OPPOSITE_DIRECTIONS),
    (F(5, 3), OPPOSITE_DIRECTIONS),
    (F(3), SAME_DIRECTION),
    (F(5, 3), SAME_DIRECTION),
])
def test_catch_oracle_exact_collocation(alpha, geometry):
    tr = ex.catch_trial(alpha, geometry)
    assert tr.gathered
    first_decide = next(e for e in tr.events if e.kind == DECIDE_GATHERED)
    t = first_decide.time
    assert position_at(tr.runs[0], t) == position_at(tr.runs[1], t)


def test_catch_random_lambda_never_decides():
    for i in range(25):
        lam = u01(spawn_rng("catch-neg", i))
        tr = ex.catch_trial(F(2), OPPOSITE_DIRECTIONS, lam)
        assert not any(e.kind == DECIDE_GATHERED for e in tr.events)


def test_repeat_count_general_matches_halving_special_case():
    from gathersim.analysis import geometric_repeat_count
    for gamma in (F(1, 5), F(13, 20), F(9, 10)):
        assert ex.repeat_count_general(gamma, F(1), F(1, 2)) == \
            geometric_repeat_count(gamma, F(1))
    assert ex.repeat_count_general(F(13, 20), F(1), F(2, 3)) == 3
    with pytest.raises(ValueError):
        ex.repeat_count_general(F(2), F(1), F(1, 2))


@pytest.mark.parametrize("bound,ratio,k", [
    (Rat(1, 5), Rat(1, 2), 1), (Rat(13, 20), Rat(1, 2), 2), (Rat(9, 10), Rat(1, 2), 4),
    (Rat(13, 20), Rat(2, 3), 3)])
def test_repeat_count_general_stays_on_rat(monkeypatch, bound, ratio, k):
    # The gap-shrink power is kept by multiplication: a Rat loop builds no
    # plain Fraction, and gives the counts criterion 10 predicts.
    plain = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        if cls is F:
            plain.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    assert ex.repeat_count_general(bound, Rat(1), ratio) == k
    assert plain == []
    assert F(1, 3) and len(plain) == 1  # the counter counts
    monkeypatch.undo()
    assert k == ex.repeat_count_general(F(bound), F(1), F(ratio))


def test_ssync_ignores_budgets():
    # The schedule sets the looks: a look budget below the activations is
    # checked, then replaced.
    s = compiled("ssync", budgets={"max_total_looks": 3},
                 params={"activations": 12})
    assert s.setups[0].budgets == Budgets(12, BIG)
    out = ex.run_one_trial(s, 0)
    assert out.total_looks == 12
    assert out.extras == {"halving_ok": True}


def test_thm4_compiles_one_setup_per_alpha():
    s = compiled("thm4", trials=7, params={"alphas": ["1", "2", "5/3"], "tau": "1/2",
                                           "fixed_sum": "13/20"})
    alphas = [Rat(1), Rat(2), Rat(5, 3)]
    assert len(s.setups) == 3
    for alpha, setup in zip(alphas, s.setups):
        speeds = {robot.id: robot.speed for robot in setup.robots}
        assert speeds == {0: 1, 1: alpha}
        assert setup.policies[0].sample(spawn_rng("any")) == 1 / (alpha + 1)
    assert ex.total_trials(s) == 3 * 7


def test_thm4_trial_counts_halvings():
    s = compiled("thm4", trials=40, budgets={"max_total_looks": 48},
                 params={"alphas": ["1"], "tau": "1/2", "fixed_sum": "13/20"})
    hist = {}
    for i in range(40):
        out = ex.run_one_trial(s, i)
        mover, other = out.trace.runs[0], out.trace.runs[1]
        k = next((k for k, seg in enumerate(mover.segments)
                  if is_mid_move(other, seg.look_time)), None)
        assert out.stats == {"k_histogram": {} if k is None else {str(k): 1}}
        if k is not None:
            hist[k] = hist.get(k, 0) + 1
    assert max(hist, key=hist.get) == 2  # delta(1 - 2^-2) = 3/4 > 13/20


def test_thm6_trial_invariant_holds():
    parsed = compiled("thm6", trials=10, budgets={"max_total_looks": 40})
    # The same runs set up by hand from plain Fractions.
    by_hand = scn(trials=10, setups=[ex.RunSetup(
        [RobotSpec(0, F(1), F(1)), RobotSpec(1, F(0), F(1))],
        {0: THREE_CHOICE, 1: THREE_CHOICE}, AdaptiveThm6({0: F(2), 1: F(1)}),
        Budgets(40, BIG), ex.read_midmove)])
    for s in (parsed, by_hand):
        for i in range(10):
            out = ex.two_robot_trial(s, i)
            assert not out.gathered
            assert out.extras["midmove_ok_all"], out.extras


def test_lemma1_trial_exact_equivalence():
    s = scn(params={"cycles": 5})
    for i in range(30):
        out = ex.lemma1_trial(s, i)
        assert out.gathered, i  # gathered flag doubles as "distances equal"


def test_multirobot_trial_single_entity():
    s = compiled("multirobot", trials=10, budgets={"max_total_looks": 800},
                 params={"n": 8, "max_tie_rounds": 200})
    for i in range(10):
        out = ex.multirobot_trial(s, i)
        assert out.gathered


def test_multirobot_trial_fails_off_its_pair_segment(monkeypatch, tmp_path, capsys):
    # Read back five times too far out (the unit's division dropped), the
    # last pair's meeting point leaves the segment between the robots.
    monkeypatch.setattr(ex, "position_at", lambda run, t: 5 * position_at(run, t))
    path = tmp_path / "multirobot.json"
    path.write_text(json.dumps({"name": "mr", "mode": "multirobot", "master_seed": 42,
                                "trials": 10, "budgets": {"max_total_looks": 800}}))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "outside the segment [-1, 1] between its robots" in capsys.readouterr().err


def test_engineered_tie_config_has_eight_pairs():
    cfg = ex.engineered_tie_config()
    assert len(cfg.entities) == 16
    pairs = farthest_pairs(cfg)
    assert len(pairs) == 8
    rounds = [ex.engineered_tie_trial(7, i, 30) for i in range(25)]
    assert all(r is not None for r in rounds)
    assert max(r for r in rounds) <= 30


# Overrides that keep a run of each bundled scenario to a few trials.
FEW_TRIALS = {"thm3_oracle": {"params": {"random_draws": 1}},
              "multirobot_n8": {"params": {"tie_trials": 1}}}


def _bundled(name, overrides):
    raw = json.loads(bundled_scenario_path(name).read_text())
    if raw["mode"] != "thm3_oracle":  # its trial count is set by params.random_draws
        raw["trials"] = 2
    for key, value in overrides.items():
        raw[key] = {**raw.get(key, {}), **value}
    return parse_scenario(json.dumps(raw))


def patch_every_binding(monkeypatch, fn, replacement):
    """Replace ``fn`` wherever a gathersim module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gathersim" or mod_name.startswith("gathersim."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, replacement)


def _count_parses(monkeypatch) -> list:
    """Count calls of parse_rat through every binding."""
    calls = []
    parse = rational.parse_rat

    def counting(*args):
        calls.append(args)
        return parse(*args)
    patch_every_binding(monkeypatch, parse, counting)
    return calls


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_trials_parse_no_rationals(monkeypatch, name):
    scn = _bundled(name, FEW_TRIALS.get(name, {}))
    calls = _count_parses(monkeypatch)
    run_experiment(scn)
    assert calls == []
    assert parse_scenario(json.dumps(scn.raw)).name == name  # the counter counts
    assert calls


@pytest.mark.parametrize("name", ["thm1_positive", "thm6_adaptive", "ssync_halving",
                                  "lemma1_projection"])
def test_untraced_trials_derive_no_event_log(monkeypatch, name):
    # Trials and trace files read the cycle segments; no run builds Events.
    scn = _bundled(name, {})
    derived = []
    derive = engine.derive_events
    monkeypatch.setattr(engine, "derive_events",
                        lambda trace: derived.append(trace) or derive(trace))
    run_experiment(scn, trace_policy="none")
    report = run_experiment(scn, trace_policy="all")
    assert derived == []
    assert len(report.traces) == ex.total_trials(scn)
    assert ex.run_one_trial(scn, 0).trace.events  # the view, which the counter sees
    assert len(derived) == 1


def test_terminal_phase_cut_by_the_budget_is_not_pooled():
    # A look budget stops the run a few cycles after its last successful
    # attempt.  That attempt is incomplete (two further cycles of each robot
    # were not simulated), so the terminal phase it closes is left out of
    # the pooled phase statistics, here next to a complete one.
    raw = json.loads(bundled_scenario_path("lemma2").read_text())
    raw["trials"], raw["budgets"]["max_total_looks"] = 10, 12
    out = ex.run_one_trial(parse_scenario(json.dumps(raw)), 8)
    phases = segment_phases(segment_attempts(out.trace))
    assert [[(a.successful, a.complete) for a in ph.attempts] for ph in phases] == [
        [(True, True)], [(False, True), (True, False)], [(True, False)]]
    assert all(ph.terminal for ph in phases)
    assert out.stats["phase_looks"] == (phases[0].total_looks,)
    assert out.stats["attempts_per_phase_hist"] == {"1": 1}
    # Completed attempts only: the first two of the four.
    assert (out.stats["n_attempts"], out.stats["attempt_successes"]) == (2, 1)


ORACLE_RUN = {
    "name": "oracles", "trials": 2, "master_seed": 3,
    "budgets": {"max_total_looks": 8, "max_time": "1000"},
    "robots": [{"id": 0, "start": "0", "policy": "o"}, {"id": 1, "start": "1", "policy": "o"}],
    "policies": {"o": {"kind": "ORACLE",
                       "script": ["1/3", "1/2", "2/3", "1/4", "3/4", "1/5", "1", "1/2"]}},
    "adversary": {"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "2"},
}


@pytest.mark.parametrize("patch", [
    {},
    {"policies": {"o": {"kind": "THREE_CHOICE"}},
     "adversary": {"kind": "ADAPTIVE_THM6", "initial_waits": {"0": "2", "1": "1"}}},
    {"policies": {"o": {"kind": "TAU_TRIPLE"}},
     "adversary": {"kind": "TAU_BOUNDED", "tau": "1/10"}},
], ids=["oracle", "adaptive", "tau_bounded"])
def test_trials_share_no_state(patch):
    text = json.dumps({**ORACLE_RUN, **patch})
    shared = parse_scenario(text)
    ex.run_one_trial(shared, 1)
    after = trace_to_jsonable(ex.run_one_trial(shared, 0).trace)
    alone = trace_to_jsonable(ex.run_one_trial(parse_scenario(text), 0).trace)
    assert after == alone
    # Trials run on copies: the compiled policies and adversary (an Oracle's
    # cursor, AdaptiveThm6's committed waits, a seed) are left as parsed.
    assert shared == parse_scenario(text)


_EXPLICIT = {"kind": "OBLIVIOUS_EXPLICIT",
             "schedules": {"0": [["1", "0"]] * 9, "1": [["3/10", "0"]] * 9}}
_ASYNC_IC = {"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "2"}


@pytest.mark.parametrize("adversary,seeded", [
    (_ASYNC_IC, True),
    ({"kind": "TAU_BOUNDED", "tau": "1/10"}, True),
    ({"kind": "PER_ROBOT", "robots": {"0": _EXPLICIT, "1": _ASYNC_IC}}, True),
    ({"kind": "PER_ROBOT", "robots": {"0": _EXPLICIT, "1": _EXPLICIT}}, False),
    (_EXPLICIT, False),
    ({"kind": "ADAPTIVE_THM6", "initial_waits": {"0": "2", "1": "1"}}, False),
], ids=["async_ic", "tau_bounded", "per_robot_seeded", "per_robot_explicit", "explicit",
        "adaptive"])
def test_adversary_seed_is_derived_only_when_read(monkeypatch, adversary, seeded):
    # A trial derives the "adv" seed only for an adversary whose for_trial
    # reads it, and a seeded adversary (or part) draws from exactly that seed.
    scn = parse_scenario(json.dumps({**ORACLE_RUN, "adversary": adversary,
                                     "policies": {"o": {"kind": "THREE_CHOICE"}}}))
    labels, adversaries = [], []
    derive, run = rational.derive_seed, engine.run

    def recording_derive(*parts):
        labels.append(parts)
        return derive(*parts)

    def recording_run(robots, policies, adv, *rest):
        adversaries.append(adv)
        return run(robots, policies, adv, *rest)

    patch_every_binding(monkeypatch, derive, recording_derive)
    patch_every_binding(monkeypatch, run, recording_run)
    for trial in (0, 1):
        ex.run_one_trial(scn, trial)
    monkeypatch.undo()
    adv_labels = [parts for parts in labels if parts[-1] == "adv"]
    assert adv_labels == ([(3, 0, "adv"), (3, 1, "adv")] if seeded else [])
    for trial, adv in enumerate(adversaries):
        parts = adv.parts.values() if hasattr(adv, "parts") else [adv]
        seeds = [part.seed for part in parts if hasattr(part, "seed")]
        assert seeds == ([derive(3, trial, "adv")] if seeded else [])
