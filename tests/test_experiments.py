from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from gathersim import experiments as ex
from gathersim.engine import Budgets, DECIDE_GATHERED, LOOK, position_at
from gathersim.multirobot import farthest_pairs
from gathersim.policies import OPPOSITE_DIRECTIONS, SAME_DIRECTION
from gathersim.rational import spawn_rng, u01

BIG = F(10 ** 9)


def scn(**kw):
    base = dict(master_seed=42, trials=1, params={}, budgets=Budgets(100, BIG),
                analysis={}, schedule_variants=None, dyadic=False)
    base.update(kw)
    return SimpleNamespace(**base)


def test_ssync_schedule_alternates_single_activations():
    sched = ex.ssync_schedule(6)
    s = scn(params={"activations": 6, "delta": "1"}, budgets=Budgets(6, BIG))
    out = ex.ssync_trial(s, 0)
    looks = [(e.time, e.robot_id) for e in out.trace.events if e.kind == LOOK]
    assert looks == [(F(10 * k), k % 2) for k in range(6)]
    assert out.flags["halving_ok"]
    assert len(sched[0]) >= 3 and len(sched[1]) >= 3


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


def test_thm4_trial_counts_halvings():
    s = scn(params={"alphas": ["1"], "delta": "1", "tau": "1/2",
                    "fixed_sum": "13/20"}, budgets=Budgets(48, BIG))
    hist = {}
    for i in range(40):
        out = ex.thm4_trial(s, i)
        if out.k_value is not None:
            hist[out.k_value] = hist.get(out.k_value, 0) + 1
    assert max(hist, key=hist.get) == 2  # delta(1 - 2^-2) = 3/4 > 13/20


def test_thm6_trial_invariant_holds():
    for dyadic in (False, True):
        s = scn(params={"w_first": "2", "w_second": "1", "delta": "1"},
                budgets=Budgets(40, BIG), dyadic=dyadic)
        for i in range(10):
            out = ex.thm6_trial(s, i)
            assert not out.gathered
            assert out.flags["midmove_ok"], out.flags


def test_lemma1_trial_exact_equivalence():
    s = scn(params={"cycles": 5})
    for i in range(30):
        out = ex.lemma1_trial(s, i)
        assert out.gathered, i  # gathered flag doubles as "distances equal"


def test_multirobot_trial_single_entity():
    s = scn(params={"n": 8}, budgets=Budgets(800, BIG))
    for i in range(10):
        out = ex.multirobot_trial(s, i)
        assert out.gathered
        assert not out.flags["partial"]


def test_engineered_tie_config_has_eight_pairs():
    cfg = ex.engineered_tie_config()
    assert len(cfg.entities) == 16
    pairs = farthest_pairs(cfg)
    assert len(pairs) == 8
    rounds = [ex.engineered_tie_trial(7, i, 30) for i in range(25)]
    assert all(r is not None for r in rounds)
    assert max(r for r in rounds) <= 30
