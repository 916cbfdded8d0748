import json
from fractions import Fraction as F
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import reference_adaptive_decide, segment_delays

from gathersim import adversary, experiments
from gathersim.adversary import (
    AdaptiveThm6,
    AdversaryError,
    InfeasibleDelayError,
    ObliviousExplicit,
    ObliviousGenerated,
    PerRobot,
    ScheduleUnderrunError,
    TauBounded,
    adversary_from_descriptor,
)
from gathersim.analysis import looks_see_midmove
from gathersim.cli import parse_scenario
from gathersim.engine import Budgets, LOOK, RobotSpec, run
from gathersim.policies import THREE_CHOICE, Oracle
from gathersim.rational import U01_DEN, Rat, spawn_rng

BIG = F(10 ** 9)


def test_explicit_lookup_and_underrun():
    adv = ObliviousExplicit({0: [(F(1), F(0)), (F(0), F(0))], 1: [(F(2), F(1))]})
    assert adv.next_delays(0, 0) == (F(1), F(0))
    assert adv.next_delays(1, 0) == (F(2), F(1))
    with pytest.raises(ScheduleUnderrunError):
        adv.next_delays(1, 1)
    with pytest.raises(ScheduleUnderrunError):
        adv.next_delays(7, 0)


def test_tau_bounded_respects_bound_and_purity():
    tau = F(1)
    adv = TauBounded(tau, seed=77)
    for robot in (0, 1):
        for cycle in range(5000):
            w, c = adv.next_delays(robot, cycle)
            assert w >= 0 and c >= 0
            assert tau < w + c <= 2 * tau
    # pure function of (robot, cycle, seed)
    assert adv.next_delays(0, 17) == TauBounded(tau, seed=77).next_delays(0, 17)
    assert adv.next_delays(0, 17) != TauBounded(tau, seed=78).next_delays(0, 17)


def test_tau_bounded_fixed_sum():
    adv = TauBounded(F(1, 2), seed=3, fixed_sum=F(13, 20))
    for cycle in range(200):
        w, c = adv.next_delays(1, cycle)
        assert w + c == F(13, 20)
    with pytest.raises(AdversaryError):
        TauBounded(F(1), seed=0, fixed_sum=F(1))


def _async_ic(w_lo, w_hi, seed):
    """What an ASYNC_IC descriptor builds: zero delays, waits uniform on [w_lo, w_hi]."""
    return ObliviousGenerated("uniform", (w_lo, w_hi, F(0), F(0)), seed)


def test_async_ic_zero_compute():
    adv = adversary_from_descriptor({"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "3"}).for_trial(5)
    for cycle in range(1000):
        w, c = adv.next_delays(0, cycle)
        assert c == 0 and F(0) <= w <= F(3)


def test_generated_constant_and_uniform():
    const = ObliviousGenerated("constant", (F(1, 4), F(0)), 0)
    assert const.next_delays(0, 9) == (F(1, 4), F(0))
    uni = ObliviousGenerated("uniform", (F(0), F(1), F(1, 8), F(1, 4)), 11)
    w, c = uni.next_delays(1, 3)
    assert F(0) <= w <= F(1) and F(1, 8) <= c <= F(1, 4)
    assert uni.next_delays(1, 3) == uni.next_delays(1, 3)


# The draws as they were computed with plain Fractions, k / 2**53 built
# by Fraction(k, 2**53): the reference for the draws' values.

def _fraction_uniform(rng, lo, hi):
    return lo + (hi - lo) * F(rng.randrange(U01_DEN + 1), U01_DEN)


def _fraction_delays(desc, seed, robot_id, cycle):
    rng = spawn_rng(seed, "wc", robot_id, cycle)
    if desc["kind"] == "TAU_BOUNDED":
        if "fixed_sum" in desc:
            total = F(desc["fixed_sum"])
            rng.randrange(U01_DEN)
        else:
            total = F(desc["tau"]) * (1 + F(rng.randrange(1, U01_DEN + 1), U01_DEN))
        w = _fraction_uniform(rng, F(0), total)
        return (w, total - w)
    if desc["kind"] == "ASYNC_IC":
        return (_fraction_uniform(rng, F(desc["w_lo"]), F(desc["w_hi"])), F(0))
    p = {key: F(value) for key, value in desc["params"].items()}
    return (_fraction_uniform(rng, p["w_lo"], p["w_hi"]),
            _fraction_uniform(rng, p["c_lo"], p["c_hi"]))


@pytest.mark.parametrize("desc,seed", [
    ({"kind": "TAU_BOUNDED", "tau": "1/10"}, 4),
    ({"kind": "TAU_BOUNDED", "tau": "1/1024"}, 5),
    ({"kind": "TAU_BOUNDED", "tau": "1/2", "fixed_sum": "13/20"}, 6),
    ({"kind": "ASYNC_IC", "w_lo": "1/3", "w_hi": "2"}, 7),
    ({"kind": "OBLIVIOUS_GENERATED", "generator": "uniform",
      "params": {"w_lo": "0", "w_hi": "3/2", "c_lo": "1/8", "c_hi": "2/7"}}, 8),
], ids=["tau_drawn", "tau_dyadic", "tau_fixed_sum", "async_ic", "generated_uniform"])
def test_draws_build_no_fraction(monkeypatch, desc, seed):
    # k / 2**53 is built by shifts: a draw calls no Fraction constructor
    # (so no gcd), and gives the values plain Fractions gave.
    adv = adversary_from_descriptor(desc).for_trial(seed)
    cells = [(rid, cycle) for rid in (0, 1) for cycle in range(500)]
    expected = [_fraction_delays(desc, seed, rid, cycle) for rid, cycle in cells]
    calls = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    drawn = [adv.next_delays(rid, cycle) for rid, cycle in cells]
    assert calls == []
    assert F(1, 3) == Rat(1, 3) and len(calls) == 2  # the counter counts
    monkeypatch.undo()
    assert drawn == expected
    assert {type(v) for pair in drawn for v in pair} == {Rat}


def test_oblivious_independence_from_algorithm_randomness():
    # Two runs with different policy seeds see identical (W, C) sequences.
    specs = [RobotSpec(0, F(0), F(1)), RobotSpec(1, F(1), F(1))]
    adv = TauBounded(F(1, 10), seed=123)
    budgets = Budgets(20, BIG)
    tr_a = run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, adv, 1, budgets)
    tr_b = run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, adv, 2, budgets)

    def pairs(tr, rid):
        segs = tr.runs[rid].segments
        return [wc for s, wc in zip(segs, segment_delays(segs)) if s.lam is not None]

    for rid in (0, 1):
        pairs_a, pairs_b = pairs(tr_a, rid), pairs(tr_b, rid)
        n = min(len(pairs_a), len(pairs_b))
        assert n > 2
        assert pairs_a[:n] == pairs_b[:n]


def test_per_robot_composite():
    adv = PerRobot({0: ObliviousGenerated("constant", (F(0), F(0)), 0),
                    1: TauBounded(F(1), seed=4)})
    assert adv.next_delays(0, 5) == (F(0), F(0))
    w, c = adv.next_delays(1, 5)
    assert w + c > 1


def test_adversary_descriptor_roundtrip():
    # Each kind's descriptor, as a scenario file writes it, builds the
    # adversary it describes.
    cases = [
        ({"kind": "OBLIVIOUS_EXPLICIT", "schedules": {"0": [["1", "0"]], "1": [["1/2", "1/4"]]}},
         ObliviousExplicit({0: [(F(1), F(0))], 1: [(F(1, 2), F(1, 4))]})),
        ({"kind": "OBLIVIOUS_GENERATED", "generator": "uniform",
          "params": {"w_lo": "0", "w_hi": "1", "c_lo": "0", "c_hi": "0"}},
         ObliviousGenerated("uniform", (F(0), F(1), F(0), F(0)), 0)),
        ({"kind": "TAU_BOUNDED", "tau": "1/10", "fixed_sum": "13/100"},
         TauBounded(F(1, 10), seed=0, fixed_sum=F(13, 100))),
        ({"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "2"}, _async_ic(F(0), F(2), 0)),
        ({"kind": "PER_ROBOT", "robots": {
            "0": {"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "1"},
            "1": {"kind": "TAU_BOUNDED", "tau": "1"}}},
         PerRobot({0: _async_ic(F(0), F(1), 0), 1: TauBounded(F(1), seed=0)})),
        ({"kind": "ADAPTIVE_THM6", "initial_waits": {"0": "2", "1": "1"}},
         AdaptiveThm6({0: F(2), 1: F(1)})),
    ]
    for desc, built in cases:
        assert adversary_from_descriptor(desc) == built
    # A seeded kind gets the seed 0, which each trial's ``for_trial``
    # replaces, and the generator's values follow its own order.
    assert adversary_from_descriptor(
        {"kind": "OBLIVIOUS_GENERATED", "generator": "constant",
         "params": {"c": "1/8", "w": "3"}}) == ObliviousGenerated("constant", (F(3), F(1, 8)), 0)
    with pytest.raises(AdversaryError, match="unknown generator"):
        adversary_from_descriptor({"kind": "OBLIVIOUS_GENERATED", "generator": "nope",
                                   "params": {}})


# ----------------------------------------------------------------------
# Each cycle's (W, C) pair is drawn once


def _thm4_run(seed):
    scn = parse_scenario(json.dumps({
        "name": "thm4", "mode": "thm4", "master_seed": seed,
        "budgets": {"max_total_looks": 40},
        "params": {"alphas": ["2"], "tau": "1/2", "fixed_sum": "13/20"}}))
    return experiments.run_one_trial(scn, 0)


def test_per_robot_copies_only_its_seeded_parts():
    # thm4's uncontrolled robot has a constant zero-delay part, which reads
    # no seed: every trial shares it, and only robot 1's draws are re-seeded.
    adv = parse_scenario(json.dumps({
        "name": "thm4", "mode": "thm4",
        "params": {"alphas": ["2"], "tau": "1/2", "fixed_sum": "13/20"}})).setups[0].adversary
    twin = adv.for_trial(5)
    assert adv.seeded and not adv.parts[0].seeded
    assert twin.parts[0] is adv.parts[0]
    assert twin.parts[1] is not adv.parts[1] and twin.parts[1].seed == 5


def _oblivious_run(adv):
    def go(seed):
        specs = [RobotSpec(0, F(0), F(1)), RobotSpec(1, F(1), F(1))]
        return run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, adv.for_trial(seed),
                   spawn_rng("draw-once", seed), Budgets(40, BIG))
    return go


# (trial runner, ids of the robots whose pairs come from an RNG)
DRAWING_RUNS = {
    "tau_bounded": (_oblivious_run(TauBounded(F(1, 10), seed=0)), {0, 1}),
    "async_ic": (_oblivious_run(_async_ic(F(0), F(2), 0)), {0, 1}),
    "generated_uniform": (_oblivious_run(ObliviousGenerated(
        "uniform", (F(0), F(1), F(0), F(1, 2)), 0)), {0, 1}),
    "thm4_per_robot": (_thm4_run, {1}),  # robot 0 has constant zero delays
}


@pytest.mark.parametrize("name", sorted(DRAWING_RUNS))
def test_oblivious_pairs_are_drawn_once_per_cycle(monkeypatch, name):
    go, drawing = DRAWING_RUNS[name]
    draws, waits = [], []
    spawn, wait_time = adversary.spawn_rng, adversary._Oblivious.wait_time
    monkeypatch.setattr(adversary, "spawn_rng",
                        lambda *parts: draws.append(parts[1:]) or spawn(*parts))
    monkeypatch.setattr(adversary._Oblivious, "wait_time",
                        lambda adv, r, k: waits.append((r, k)) or wait_time(adv, r, k))
    for seed in range(3):
        go(seed)
    assert len(waits) >= 20
    assert draws == [("wc", r, k) for r, k in waits if r in drawing]


@pytest.mark.parametrize("adv", [
    TauBounded(F(1, 10), seed=0),
    _async_ic(F(0), F(2), 0),
    ObliviousGenerated("uniform", (F(0), F(1), F(0), F(1, 2)), 0),
    PerRobot({0: _async_ic(F(0), F(1), 0), 1: TauBounded(F(1), seed=0)}),
], ids=["TAU_BOUNDED", "ASYNC_IC", "OBLIVIOUS_GENERATED", "PER_ROBOT"])
def test_computation_delay_without_a_wait_draws_the_pair(adv):
    drawn = adv.for_trial(5)
    for robot in (0, 1):
        drawn.wait_time(robot, 7)
        assert drawn.computation_delay(robot, 7, None) == drawn.next_delays(robot, 7)[1]
        # A cycle whose wait was not drawn, and a copy for another trial.
        assert drawn.computation_delay(robot, 8, None) == drawn.next_delays(robot, 8)[1]
        twin = drawn.for_trial(6)
        assert twin.computation_delay(robot, 7, None) == twin.next_delays(robot, 7)[1]
        assert twin.next_delays(robot, 7) != drawn.next_delays(robot, 7)


# ----------------------------------------------------------------------
# Adaptive strategy (hand-solved instance)


def thm6_run(policy0, policy1, looks=12, w0=F(2), w1=F(1)):
    # Paper's frame: the robot that waits longer starts at distance 1,
    # the early looker at 0.
    specs = [RobotSpec(0, F(1), F(1)), RobotSpec(1, F(0), F(1))]
    adv = AdaptiveThm6({0: w0, 1: w1})
    return run(specs, {0: policy0, 1: policy1}, adv, spawn_rng("thm6-unit"),
               Budgets(looks, BIG)), adv


def test_adaptive_first_delay_matches_hand_solution():
    # delta=1, W1(0)=2, W2(0)=1, lambda drawn 1/2: feasible C in (1/2, 1),
    # midpoint 3/4, so the move runs on (7/4, 9/4) and the other robot's
    # look at t=2 sees the mover at 1/4.
    tr, _ = thm6_run(Oracle([F(1), F(0), F(1, 2)] * 4), Oracle([F(1, 2)] + [F(1)] * 8),
                     looks=4)
    seg = tr.runs[1].segments[0]
    assert segment_delays(tr.runs[1].segments)[0][1] == F(3, 4)
    assert (seg.move_start, seg.move_end) == (F(7, 4), F(9, 4))
    look0 = next(e for e in tr.events if e.kind == LOOK and e.robot_id == 0)
    assert look0.time == F(2)
    assert look0.payload["observed"] == (F(1, 4),)


def test_adaptive_straddles_committed_next_look():
    # Continuing the instance: whatever delay is chosen for the late
    # robot's first cycle, the early robot's committed next look falls
    # strictly inside the resulting move interval.
    tr, _ = thm6_run(Oracle([F(1), F(1, 2), F(1, 2)] * 4), Oracle([F(1, 2)] + [F(1)] * 8),
                     looks=6)
    ok, violations = looks_see_midmove(tr)
    assert ok, violations
    seg0 = tr.runs[0].segments[0]
    next_look_1 = tr.runs[1].segments[1].look_time
    assert seg0.move_start < next_look_1 < seg0.move_end


def test_adaptive_lambda_zero_forces_immediate_relook():
    # lambda=0 -> (C, W_next) = (0, 0): the robot re-looks at the same
    # instant and draws again.
    tr, _ = thm6_run(Oracle([F(1)] * 6, ), Oracle([F(1, 2), F(0), F(0), F(1, 2)] + [F(1)] * 4),
                     looks=8)
    segs = tr.runs[1].segments
    wc = segment_delays(segs)
    # The zero draw zeroes the current compute and the next wait, so the
    # robot's next two looks land at the very same instant.
    assert segs[1].lam == F(0) and wc[1][1] == F(0)
    assert segs[2].lam == F(0) and wc[2][0] == F(0) and wc[2][1] == F(0)
    assert wc[3][0] == F(0)
    assert segs[1].look_time == segs[2].look_time == segs[3].look_time


def test_adaptive_avoids_landing_on_the_other_robot():
    # Robot 0 looks at 0 and heads for 2; robot 1 rests at 1 until its
    # look at 5.  The feasible delays are (3, 5), and the midpoint 4 would
    # put robot 0 exactly on robot 1 at that look, so the delay drops to
    # the quarter point 7/2 and robot 1 sees robot 0 at 3/2.
    specs = [RobotSpec(0, F(0), F(1)), RobotSpec(1, F(1), F(1))]
    tr = run(specs, {0: Oracle([F(2)]), 1: Oracle([F(1, 2)])},
             AdaptiveThm6({0: F(0), 1: F(5)}), spawn_rng("thm6-coincide"), Budgets(2, F(100)))
    assert segment_delays(tr.runs[0].segments)[0][1] == F(7, 2)
    assert tr.runs[1].segments[0].observed == F(3, 2)


def test_adaptive_avoids_landing_on_the_other_robot_moving_backward():
    # The mirror image: robot 0 starts at 2 and heads for 0, so the
    # midpoint delay would again put it on robot 1 at 1 at t = 5; with the
    # quarter point robot 1 sees it at 1/2.
    specs = [RobotSpec(0, F(2), F(1)), RobotSpec(1, F(1), F(1))]
    tr = run(specs, {0: Oracle([F(2)]), 1: Oracle([F(1, 2)])},
             AdaptiveThm6({0: F(0), 1: F(5)}), spawn_rng("thm6-coincide"), Budgets(2, F(100)))
    assert segment_delays(tr.runs[0].segments)[0][1] == F(7, 2)
    assert tr.runs[1].segments[0].observed == F(1, 2)


# adaptive_decide against the literal move of oracles.reference_adaptive_decide

dyadics = st.builds(lambda n, e: Rat(n, 1 << e), st.integers(-2 ** 70, 2 ** 70),
                    st.integers(0, 80))
rats = st.one_of(dyadics, st.builds(Rat, st.integers(-10 ** 9, 10 ** 9),
                                    st.integers(1, 10 ** 6)))
positive = st.one_of(
    st.builds(lambda n, e: Rat(n, 1 << e), st.integers(1, 2 ** 70), st.integers(0, 80)),
    st.builds(Rat, st.integers(1, 10 ** 9), st.integers(1, 10 ** 6)))


def decide_pair(adv, pos, dest, speed, look_time, other_look, other_pos, other_moving):
    """(looking robot, other robot) as adaptive_decide reads them; a moving
    other robot's next look is its move end plus a committed wait of 1."""
    shift = dest - pos
    me = SimpleNamespace(spec=SimpleNamespace(id=0, speed=speed), pos=pos,
                         look_time=look_time, shift=shift, travel=abs(shift) / speed)
    spec = SimpleNamespace(id=1, speed=Rat(1))
    if other_moving:
        adv._next_wait[(1, 4)] = Rat(1)
        other = SimpleNamespace(spec=spec, phase="moving", cycle=3,
                                move_end=other_look - 1, dest=other_pos)
    else:
        other = SimpleNamespace(spec=spec, phase="waiting", look_time=other_look,
                                pos=other_pos)
    return me, other


def decisions(adv, pair, dest):
    """adaptive_decide and its reference, or the error each raised."""
    got = []
    for decide in (adv.adaptive_decide, partial(reference_adaptive_decide, adv, dest=dest)):
        try:
            got.append(decide(pair))
        except InfeasibleDelayError:
            got.append(InfeasibleDelayError)
    return got


def _gap_examples(test):
    """The gaps drawn gaps almost never hit, for a move of length 3 at
    speeds 1 and 3/2 (travel 3 and 2), the other robot waiting or moving:
    gap == travel (lo exactly 0, unclamped), 0 < gap < travel (clamped to
    lo = 0), and gap == 0 or gap < 0 (an empty interval, which raises)."""
    for speed, travel in ((Rat(1), Rat(3)), (Rat(3, 2), Rat(2))):
        for gap in (travel, Rat(1), Rat(0), Rat(-1)):
            for other_moving in (False, True):
                test = example(Rat(0), Rat(3), speed, Rat(5), gap, Rat(7),
                               other_moving)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(rats, rats, positive, rats, rats, rats, st.booleans())
@_gap_examples
def test_adaptive_decide_matches_literal_move(pos, dest, speed, look_time, gap,
                                              other_pos, other_moving):
    adv = AdaptiveThm6({0: F(2), 1: F(1)})
    pair = decide_pair(adv, pos, dest, speed, look_time, look_time + gap, other_pos,
                       other_moving)
    got, expected = decisions(adv, pair, dest)
    assert got == expected


@pytest.mark.parametrize("gap", [Rat(0), Rat(-1, 3)])
def test_adaptive_decide_names_the_empty_interval(gap):
    adv = AdaptiveThm6({0: F(2), 1: F(1)})
    pair = decide_pair(adv, Rat(0), Rat(3), Rat(1), Rat(5), Rat(5) + gap, Rat(7), False)
    with pytest.raises(InfeasibleDelayError,
                       match=rf"^empty feasible delay interval \(0, {gap}\) for robot 0$"):
        adv.adaptive_decide(pair)


@pytest.mark.parametrize("direction", [1, -1])
@settings(max_examples=200, deadline=None)
@given(pos=rats, distance=positive, speed=positive, look_time=rats, gap=positive,
       other_moving=st.booleans())
def test_adaptive_decide_quarter_point_on_exact_coincidence(
        direction, pos, distance, speed, look_time, gap, other_moving):
    # The other robot rests exactly where the midpoint delay would put
    # this one at the other's next look, so both drop to the quarter point.
    dest = pos + direction * distance
    travel = distance / speed
    lo, hi = max(gap - travel, Rat(0)), gap
    at_look = pos + direction * speed * ((hi - lo) / 2)
    adv = AdaptiveThm6({0: F(2), 1: F(1)})
    pair = decide_pair(adv, pos, dest, speed, look_time, look_time + gap, at_look,
                       other_moving)
    got, expected = decisions(adv, pair, dest)
    assert got == expected == (lo + (hi - lo) / 4, 1)


def test_adaptive_never_gathers_small_batch():
    for seed in range(25):
        specs = [RobotSpec(0, F(1), F(1)), RobotSpec(1, F(0), F(1))]
        adv = AdaptiveThm6({0: F(2), 1: F(1)})
        tr = run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, adv,
                 spawn_rng("thm6-batch", seed), Budgets(60, BIG))
        ok, violations = looks_see_midmove(tr)
        assert not tr.gathered
        assert ok, (seed, violations)


def test_adaptive_requires_distinct_waits():
    with pytest.raises(AdversaryError):
        AdaptiveThm6({0: F(1), 1: F(1)})
