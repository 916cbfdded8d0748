import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, note, settings, strategies as st

from oracles import (
    grid_project_coordinate,
    reference_events,
    reference_trace_text,
    segment_delays,
)
from test_experiments import _bundled, patch_every_binding

from gathersim import experiments
from gathersim.adversary import AdaptiveThm6, ObliviousExplicit, ScheduleUnderrunError
from gathersim.cli import bundled_scenario_path, parse_scenario, trace_to_jsonable
from gathersim.engine import (
    Budgets,
    DECIDE_GATHERED,
    DegenerateLineError,
    GATHERED,
    LOOK,
    LOOK_BUDGET_EXHAUSTED,
    MOVE_END,
    MOVE_START,
    RobotSpec,
    TIME_BUDGET_EXHAUSTED,
    position_at,
    project_scenario_to_line,
    run,
)
from gathersim.experiments import total_trials
from gathersim.policies import THREE_CHOICE, TAU_TRIPLE, Deterministic, Oracle
from gathersim.rational import Rat, spawn_rng

BIG = F(10 ** 6)


def explicit(sched0, sched1):
    return ObliviousExplicit({0: [(F(w), F(c)) for w, c in sched0],
                              1: [(F(w), F(c)) for w, c in sched1]})


def two_bots(x0="0", x1="1", s0="1", s1="1"):
    return [RobotSpec(0, F(x0), F(s0)), RobotSpec(1, F(x1), F(s1))]


def run_simple(specs, pol0, pol1, adv, looks=10, max_time=BIG, seed=0):
    return run(specs, {0: pol0, 1: pol1}, adv, seed, Budgets(looks, max_time))


# ----------------------------------------------------------------------
# position_at


def midpoint_trace():
    # Both robots wait 1, then move to the midpoint; gathered next cycle.
    specs = two_bots()
    adv = explicit([(1, 0)] * 3, [(1, 0)] * 3)
    return run_simple(specs, Deterministic(F(1, 2)), Deterministic(F(1, 2)), adv)


def test_position_linear_inside_move():
    # Robot at 0 with destination 1, speed 1, move_start 2 -> 0.4 at t=2.4.
    specs = two_bots()
    adv = explicit([(2, 0)] * 3, [(50, 0)] * 3)
    tr = run_simple(specs, Deterministic(F(1)), Deterministic(F(1)), adv,
                    looks=3, max_time=F(60))
    seg = tr.runs[0].segments[0]
    assert (seg.move_start, seg.destination) == (F(2), F(1))
    assert position_at(tr.runs[0], F("2.4")) == F("0.4")
    # Before the move the robot rests at its origin.
    assert position_at(tr.runs[0], F(1)) == F(0)
    assert position_at(tr.runs[0], seg.move_end) == seg.destination


def test_position_speed_two():
    specs = two_bots(s0="2")
    adv = explicit([(0, 0)] * 3, [(50, 0)] * 3)
    tr = run_simple(specs, Deterministic(F(1)), Deterministic(F(1)), adv,
                    looks=3, max_time=F(60))
    assert position_at(tr.runs[0], F(1, 4)) == F(1, 2)


def test_position_underrun():
    tr = midpoint_trace()
    with pytest.raises(ScheduleUnderrunError):
        position_at(tr.runs[0], tr.horizon + 1)
    with pytest.raises(ScheduleUnderrunError):
        position_at(tr.runs[0], F(-1))


# ----------------------------------------------------------------------
# what a look observed


def test_observe_idle_and_midmove():
    specs = two_bots()
    adv = explicit([(2, 0)] * 3, [(50, 0)] * 3)
    tr = run_simple(specs, Deterministic(F(1)), Deterministic(F(1)), adv,
                    looks=3, max_time=F(60))
    # Robot 0 looks at t=2 from 0 and sees robot 1 idle at 1.
    seg = tr.runs[0].segments[0]
    assert (seg.look_time, seg.origin, seg.observed) == (F(2), F(0), F(1))
    # Robot 1 looks at t=50; robot 0 landed on it at t=3 and decided at
    # its own next look, so robot 1 sees a coincident point.
    seg = tr.runs[1].segments[0]
    assert (seg.look_time, seg.origin, seg.observed) == (F(50), F(1), F(1))
    assert position_at(tr.runs[0], F(50)) == F(1)
    assert seg.lam is None  # it decided it had gathered


def test_observe_midmove_composition():
    # Observer catches the other robot mid-flight: exact interpolation.
    specs = two_bots(x0="0", x1="4")
    adv = explicit([(0, 0)] * 3, [("5/2", 0)] * 3)
    tr = run_simple(specs, Deterministic(F(1)), Deterministic(F(0)), adv,
                    looks=3, max_time=F(60))
    # Robot 0 moves 0 -> 4 during (0, 4); robot 1 looks at t = 5/2.
    seg = tr.runs[1].segments[0]
    assert (seg.look_time, seg.observed) == (F(5, 2), F(5, 2))
    assert position_at(tr.runs[0], F(5, 2)) == F(5, 2)


# ----------------------------------------------------------------------
# run: spec examples


def test_run_simultaneous_midpoint_gathers():
    tr = midpoint_trace()
    assert tr.final_status == GATHERED
    assert position_at(tr.runs[0], tr.horizon) == F(1, 2)
    assert position_at(tr.runs[1], tr.horizon) == F(1, 2)
    assert sum(tr.look_count.values()) == 4


def test_run_fig3_gamma_exceeds_distance():
    # R1 with zero wait and lambda=1 walks onto R2 (idle until t=5) and
    # decides gathered at its next look, before R2 ever looks.
    specs = two_bots()
    adv = explicit([(0, 0)] * 4, [(5, 0)] * 4)
    tr = run_simple(specs, Deterministic(F(1)), Deterministic(F(1)), adv,
                    looks=6, max_time=F(60))
    assert tr.final_status == GATHERED
    decides = [e for e in tr.events if e.kind == DECIDE_GATHERED]
    assert decides[0].robot_id == 0 and decides[0].time == F(1)
    assert decides[1].robot_id == 1 and decides[1].time == F(5)


def test_run_ssync_alternation_halves_forever():
    # Alternating single activation with lambda=1/2: distances 1, 1/2,
    # 1/4, 1/8 after successive activations, never zero.
    specs = two_bots()
    adv = explicit([(0, 0), (19, 0), ("79/4", 0)],
                   [(10, 0), ("39/2", 0), ("159/8", 0)])
    tr = run_simple(specs, Deterministic(F(1, 2)), Deterministic(F(1, 2)), adv,
                    looks=4, max_time=BIG)
    looks = [e for e in tr.events if e.kind == LOOK]
    dists = [abs(e.payload["observed"][0] - e.payload["own"]) for e in looks]
    assert dists == [F(1), F(1, 2), F(1, 4), F(1, 8)]
    assert tr.final_status == LOOK_BUDGET_EXHAUSTED


def test_run_is_deterministic():
    specs = two_bots()
    adv = ObliviousExplicit({0: [(F(1), F(1, 4))] * 8, 1: [(F(3, 4), F(0))] * 8})
    t1 = run_simple(specs, THREE_CHOICE, THREE_CHOICE, adv, looks=9, seed=31)
    t2 = run_simple(specs, THREE_CHOICE, THREE_CHOICE, adv, looks=9, seed=31)
    assert t1.events == t2.events
    assert t1.final_status == t2.final_status
    t3 = run_simple(specs, THREE_CHOICE, THREE_CHOICE, adv, looks=9, seed=32)
    assert t3.events != t1.events


def test_run_budget_statuses():
    specs = two_bots()
    adv = explicit([(1, 0)] * 20, [(1, 0)] * 20)
    swap = Deterministic(F(1))  # robots endlessly swap positions
    tr = run_simple(specs, swap, swap, adv, looks=6, max_time=BIG)
    assert tr.final_status == LOOK_BUDGET_EXHAUSTED
    assert sum(tr.look_count.values()) == 6
    tr = run_simple(specs, swap, swap, adv, looks=100, max_time=F(7))
    assert tr.final_status == TIME_BUDGET_EXHAUSTED
    assert all(e.time <= F(7) for e in tr.events)


def test_run_schedule_underrun_propagates():
    specs = two_bots()
    adv = explicit([(1, 0)], [(1, 0)])
    with pytest.raises(ScheduleUnderrunError):
        run_simple(specs, Deterministic(F(1)), Deterministic(F(1)), adv, looks=10)


class _UncheckedAdversary:
    """Gives ``wait`` as every W and ``compute`` as every C, unchecked."""

    def __init__(self, wait, compute):
        self.wait, self.compute = wait, compute

    def wait_time(self, robot_id, cycle):
        return self.wait

    def computation_delay(self, robot_id, cycle, pair):
        return self.compute


@pytest.mark.parametrize("wait,compute,message", [
    (Rat(-1, 10), Rat(0), "adversary produced a negative wait"),
    (Rat(3, 10), Rat(-1, 10), "adversary produced a negative computation delay"),
], ids=["wait", "compute"])
def test_run_refuses_negative_delays(wait, compute, message):
    with pytest.raises(ValueError) as exc:
        run_simple(two_bots(), Deterministic(F(1, 2)), Deterministic(F(1, 2)),
                   _UncheckedAdversary(wait, compute))
    assert str(exc.value) == message


def test_run_requires_two_robots():
    with pytest.raises(ValueError):
        run([RobotSpec(0, F(0), F(1))], {0: Deterministic(F(1))},
            explicit([(1, 0)], [(1, 0)]), 0, Budgets(4, BIG))


def test_zero_length_move_emits_events():
    specs = two_bots()
    adv = explicit([(1, 0)] * 4, [(1, 0)] * 4)
    tr = run_simple(specs, Deterministic(F(0)), Deterministic(F(0)), adv, looks=4)
    kinds = [(e.kind, e.time) for e in tr.events if e.robot_id == 0]
    assert (MOVE_START, F(1)) in kinds and (MOVE_END, F(1)) in kinds


def test_simultaneous_event_ordering():
    # Pending events at equal times: LOOK before MOVE_END before
    # MOVE_START, ties by robot id; a robot's own events stay in cycle
    # order, so its zero-length move drains before the peer's starts.
    specs = two_bots()
    adv = explicit([(1, 0)] * 4, [(1, 0)] * 4)
    tr = run_simple(specs, Deterministic(F(0)), Deterministic(F(0)), adv, looks=4)
    at_one = [(e.kind, e.robot_id) for e in tr.events if e.time == F(1)]
    assert at_one == [
        (LOOK, 0), (LOOK, 1),
        (MOVE_START, 0), (MOVE_END, 0),
        (MOVE_START, 1), (MOVE_END, 1),
    ]


# ----------------------------------------------------------------------
# invariants


def test_replay_reproduces_snapshots_bit_for_bit():
    specs = two_bots()
    adv = ObliviousExplicit({0: [(F(1), F(1, 8))] * 10, 1: [(F(1, 2), F(0))] * 10})
    tr = run_simple(specs, THREE_CHOICE, THREE_CHOICE, adv, looks=12, seed=7)
    looks = 0
    for rid, rr in tr.runs.items():
        other = tr.runs[1 - rid]
        for seg in rr.segments:
            assert seg.observed == position_at(other, seg.look_time)
            assert seg.origin == position_at(rr, seg.look_time)
            looks += 1
    assert looks == sum(tr.look_count.values()) == 10


def test_rigid_motion_reaches_destination():
    specs = two_bots()
    adv = ObliviousExplicit({0: [(F(1), F(0))] * 10, 1: [(F(2, 3), F(1, 5))] * 10})
    tr = run_simple(specs, THREE_CHOICE, THREE_CHOICE, adv, looks=10, seed=11)
    for rid, rr in tr.runs.items():
        for seg, (w, c) in zip(rr.segments, segment_delays(rr.segments)):
            if seg.lam is not None and seg.move_end <= tr.horizon:
                assert position_at(rr, seg.move_end) == seg.destination
            drawn_w, drawn_c = adv.next_delays(rid, seg.cycle)
            # A deciding look commits no move: its C is 0.
            assert (w, c) == (drawn_w, drawn_c if seg.lam is not None else 0)


def test_trace_event_ordering_invariants():
    specs = two_bots()
    adv = ObliviousExplicit({0: [(F(1), F(1, 8))] * 12, 1: [(F(1, 3), F(0))] * 12})
    for seed in range(6):
        tr = run_simple(specs, THREE_CHOICE, THREE_CHOICE, adv, looks=14, seed=seed)
        # nondecreasing timestamps
        assert all(a.time <= b.time for a, b in zip(tr.events, tr.events[1:]))
        for rid in tr.robot_ids:
            mine = [e for e in tr.events if e.robot_id == rid]
            # per-robot cycle order: LOOK -> MOVE_START -> MOVE_END per cycle
            cycle_kinds = {}
            for e in mine:
                cycle_kinds.setdefault(e.payload["cycle"], []).append(e.kind)
            for kinds in cycle_kinds.values():
                assert kinds in ([LOOK], [LOOK, DECIDE_GATHERED],
                                 [LOOK, MOVE_START], [LOOK, MOVE_START, MOVE_END])
            # no MOVE_START after a gathering decision
            if any(e.kind == DECIDE_GATHERED for e in mine):
                t = next(e.time for e in mine if e.kind == DECIDE_GATHERED)
                assert not any(e.kind == MOVE_START and e.time >= t for e in mine)


def test_gathering_stability():
    tr = midpoint_trace()
    decide_time = max(e.time for e in tr.events if e.kind == DECIDE_GATHERED)
    a, b = tr.robot_ids
    for num in range(8):
        t = decide_time + F(num, 7) * (tr.horizon - decide_time)
        assert position_at(tr.runs[a], t) == position_at(tr.runs[b], t)


# ----------------------------------------------------------------------
# the derived event log against a loop that records every event


def assert_matches_reference(make_run, budgets):
    """``make_run()`` gives fresh (robots, policies, adversary, seed)."""
    ref_events, status, look_count, horizon = reference_events(*make_run(), budgets)
    tr = run(*make_run(), budgets)
    assert [(e.time, e.robot_id, e.kind, e.payload) for e in tr.events] == ref_events
    assert (tr.final_status, tr.look_count, tr.horizon) == (status, look_count, horizon)
    return tr


_TIE_VALUES = [F(0), F(1, 2), F(1)]
_LAMBDAS = [F(0), F(1, 2), F(1), F(3, 2), F(-1, 2)]
_LOOKS = 12
# Enough (W, C) entries and lambdas for every cycle the look budget allows.
_schedule = st.lists(st.tuples(st.sampled_from(_TIE_VALUES), st.sampled_from(_TIE_VALUES)),
                     min_size=_LOOKS + 1, max_size=_LOOKS + 1)
_policy = st.one_of(
    st.tuples(st.just("deterministic"), st.sampled_from(_LAMBDAS)),
    st.tuples(st.just("oracle"), st.lists(st.sampled_from(_LAMBDAS),
                                          min_size=_LOOKS, max_size=_LOOKS)),
)


def _make_policy(desc):
    kind, value = desc
    return Deterministic(value) if kind == "deterministic" else Oracle(list(value))


def tie_heavy_run(sched0, sched1, pol0, pol1, looks, x1, cut, between, ids=(0, 1),
                  speeds=(F(1), F(1))):
    """(make_run, budgets) of one run of the tie-heavy family.

    W and C drawn from {0, 1/2, 1} make same-instant events common, so
    look budgets often stop between two looks at one instant.  ``cut``
    picks the time budget: an event time, or strictly between two of them
    when ``between``; a negative ``cut`` makes both first waits positive
    and stops the run before its first look.  ``speeds`` are the two
    robots'.  ``make_run()`` gives fresh (robots, policies, adversary, seed).
    """
    first, second = ids
    if cut < 0:
        sched0, sched1 = ([(max(s[0][0], F(1, 2)), s[0][1])] + list(s[1:])
                          for s in (sched0, sched1))

    def make_run():
        adv = ObliviousExplicit({first: list(sched0), second: list(sched1)})
        specs = [RobotSpec(first, F(0), speeds[0]), RobotSpec(second, x1, speeds[1])]
        return specs, {first: _make_policy(pol0), second: _make_policy(pol1)}, adv, 5

    if cut < 0:
        return make_run, Budgets(looks, F(1, 4))
    full, *_ = reference_events(*make_run(), Budgets(looks, BIG))
    times = sorted({t for t, *_ in full if t > 0} | {BIG})
    i = min(cut, len(times) - 1)
    max_time = (times[i] + times[i + 1]) / 2 if between and i + 1 < len(times) else times[i]
    return make_run, Budgets(looks, max_time)


_FAMILY = (_schedule, _schedule, _policy, _policy, st.integers(1, _LOOKS),
           st.sampled_from([F(1), F(2), F(1, 3)]), st.integers(-3, 4 * _LOOKS), st.booleans(),
           st.sampled_from([(0, 1), (2, 10), (-1, 3)]))
tie_heavy_runs = st.builds(tie_heavy_run, *_FAMILY)

# The same family at non-unit speeds: thm4's alphas 2 and 13/20, and 1/3.
NON_UNIT_SPEEDS = [(F(1, 3), F(2)), (F(13, 20), F(1)), (F(1), F(13, 20)), (F(2), F(1, 3))]
mixed_speed_runs = st.builds(tie_heavy_run, *_FAMILY, st.sampled_from(NON_UNIT_SPEEDS))


@settings(max_examples=400, deadline=None)
@given(family_run=tie_heavy_runs)
def test_derived_events_match_reference(family_run):
    make_run, budgets = family_run
    note(f"budgets = {budgets}")
    assert_matches_reference(make_run, budgets)


@settings(max_examples=200, deadline=None)
@given(family_run=mixed_speed_runs)
def test_derived_events_match_reference_non_unit_speeds(family_run):
    # A look that sees the other robot mid-move interpolates it at its
    # speed; the reference places it with move_position's comparisons.
    make_run, budgets = family_run
    note(f"budgets = {budgets}")
    assert_matches_reference(make_run, budgets)


# Runs of the family that end in DECIDE_GATHERED events, move by a
# negative lambda, and stop before any event.
_WAIT_0 = [(F(0), F(0))] * (_LOOKS + 1)
_WAIT_1 = [(F(1), F(0))] * (_LOOKS + 1)
_DECIDING = tie_heavy_run(_WAIT_0, _WAIT_1, ("deterministic", F(1)), ("deterministic", F(0)),
                          _LOOKS, F(1), 4 * _LOOKS, False)
_NEGATIVE = tie_heavy_run(_WAIT_1, _WAIT_0, ("deterministic", F(-1, 2)),
                          ("oracle", [F(3, 2)] * _LOOKS), _LOOKS, F(2), 4 * _LOOKS, False,
                          ids=(2, 10))
_EMPTY = tie_heavy_run(_WAIT_0, _WAIT_0, ("deterministic", F(1)), ("deterministic", F(1)),
                       _LOOKS, F(1), -1, False)


def test_family_examples_cover_decisions_negative_lambda_and_no_events():
    kinds = [e.kind for e in run(*_DECIDING[0](), _DECIDING[1]).events]
    assert kinds.count(DECIDE_GATHERED) == 2
    negative = run(*_NEGATIVE[0](), _NEGATIVE[1])
    assert any(e.kind == MOVE_START and e.payload["lam"] < 0 for e in negative.events)
    empty = run(*_EMPTY[0](), _EMPTY[1])
    assert (empty.events, empty.final_status) == ([], TIME_BUDGET_EXHAUSTED)


@settings(max_examples=300, deadline=None)
@given(family_run=tie_heavy_runs)
@example(family_run=_DECIDING)
@example(family_run=_NEGATIVE)
@example(family_run=_EMPTY)
def test_trace_text_matches_reference(family_run):
    make_run, budgets = family_run
    tr = run(*make_run(), budgets)
    assert trace_to_jsonable(tr) == reference_trace_text(tr)


@pytest.mark.parametrize("looks,max_time,last", [
    (1, BIG, (F(1, 2), 0, LOOK)),       # robot 1's look at t = 1/2 is cut off
    (3, BIG, (F(2), 0, LOOK)),          # so is robot 1's look at t = 2
    (4, F(7, 4), (F(3, 2), 1, MOVE_END)),  # no event in (3/2, 7/4]
    (4, F(3), (F(3), 1, MOVE_END)),     # events at the budget itself run
])
def test_derived_events_stop_where_the_run_stopped(looks, max_time, last):
    # Both robots wait 1/2 and swap with lambda 1 and no delay, so every
    # look, move start and move end comes as a same-instant pair.
    def make_run():
        sched = [(F(1, 2), F(0))] * 8
        pol = Deterministic(F(1))
        return two_bots(), {0: pol, 1: pol}, ObliviousExplicit({0: sched, 1: sched}), 0

    tr = assert_matches_reference(make_run, Budgets(looks, max_time))
    e = tr.events[-1]
    assert (e.time, e.robot_id, e.kind) == last


def test_derived_events_match_reference_adaptive():
    # The adaptive adversary forces same-instant re-looks after lambda 0.
    relooks = 0
    for seed in range(8):
        def make_run():
            specs = [RobotSpec(0, F(1), F(1)), RobotSpec(1, F(0), F(1))]
            return (specs, {0: TAU_TRIPLE, 1: TAU_TRIPLE},
                    AdaptiveThm6({0: F(2), 1: F(1)}), spawn_rng("derive-thm6", seed))

        tr = assert_matches_reference(make_run, Budgets(40, BIG))
        looks = [(e.time, e.robot_id) for e in tr.events if e.kind == LOOK]
        relooks += len(looks) - len(set(looks))
    assert relooks


RAT_COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__")
RAT_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", *RAT_COMPARISONS,
                 "__eq__", "__neg__", "__abs__", "__pos__")


def _rat_operations_inside(monkeypatch, fn, trials, operators=RAT_OPERATORS) -> int:
    """Calls of Rat's ``operators`` made inside ``fn`` while ``trials()`` runs."""
    calls = [0]
    counting = [False]
    for name in operators:
        def counted(*args, _op=getattr(Rat, name)):
            calls[0] += counting[0]
            return _op(*args)
        monkeypatch.setattr(Rat, name, counted)

    def counted_fn(*args):
        counting[0] = True
        try:
            return fn(*args)
        finally:
            counting[0] = False

    patch_every_binding(monkeypatch, fn, counted_fn)
    try:
        trials()
    finally:
        monkeypatch.undo()
    return calls[0]


def test_adaptive_run_operation_count(monkeypatch):
    # Counted, not timed: Rat operator calls inside engine.run on trial 0
    # of the bundled thm6 scenario (400 looks).  At 43.5 per look (17 396)
    # each event checked the time budget and the adversary placed the move
    # with move_position to test for a coincidence; with only a late
    # robot's events checking the budget and the coincidence tested in
    # closed form it took 37.0 per look (14 791).  Reading the signs of W
    # and C off their numerators and adding no zero C gave 34.0 per look
    # (13 618).  Every look sees the other robot mid-move; interpolating
    # it directly, instead of through move_position's three comparisons,
    # and dividing by no unit speed gave 29.1 per look (11 624).  The
    # adversary now reads signs off numerators and takes the feasible
    # interval's width in closed form, without building its ends, and a
    # look's distance is the shift or its negation by the shift's sign:
    # 24.5 per look (9 818).
    scn = _bundled("thm6_adaptive", {})
    outcome = []
    calls = _rat_operations_inside(
        monkeypatch, run, lambda: outcome.append(experiments.run_one_trial(scn, 0)))
    assert outcome[0].total_looks == 400
    assert calls <= 10_500, calls


def test_thm1_run_operation_count(monkeypatch):
    # Counted, not timed: Rat operator calls inside engine.run over the
    # 100 trials (five schedule variants of 20) of the bundled thm1
    # scenario, 869 looks.  Every C is 0 and the waits are not dyadic in
    # the scenario's unit; the set-ups run in a unit 5 times finer, where
    # they are, which changes the path each call takes but not the count.
    # At 17.3 per look (15 001) each cycle compared W and C with zero and
    # added the zero C, and lambda = 1 computed own + 1 * (obs - own); now
    # the signs are read off the numerators, a zero delay adds nothing and
    # lambda = 1 returns the observed position: 13.7 per look (11 919).
    # A unit speed divides no travel time, and a robot seen mid-move is
    # interpolated directly: 12.3 per look (10 691).  A look's distance is
    # the shift or its negation by the shift's sign, with no abs call for a
    # positive shift: 11.9 per look (10 336).
    raw = json.loads(bundled_scenario_path("thm1_positive").read_text())
    raw["trials"] = 20
    scn = parse_scenario(json.dumps(raw))
    outcomes = []
    calls = _rat_operations_inside(monkeypatch, run, lambda: outcomes.extend(
        experiments.run_one_trial(scn, trial) for trial in range(total_trials(scn))))
    assert len(outcomes) == 100
    assert sum(out.total_looks for out in outcomes) == 869
    assert calls <= 10_600, calls


# ----------------------------------------------------------------------
# look-time gap L1(k) - L2(k)


def test_gap_definition_and_zero():
    specs = two_bots(x1="2")
    adv = explicit([(2, 0)] * 4, [(1, 0)] * 4)
    tr = run_simple(specs, Deterministic(F(1, 2)), Deterministic(F(1, 2)), adv,
                    looks=4)
    assert tr.runs[0].segments[0].look_time - tr.runs[1].segments[0].look_time == F(1)
    sym = run_simple(two_bots(), Deterministic(F(1, 2)), Deterministic(F(1, 2)),
                     explicit([(1, 0)] * 3, [(1, 0)] * 3))
    assert sym.runs[0].segments[0].look_time == sym.runs[1].segments[0].look_time


def test_gap_step1_both_lambda_one():
    # Both robots draw lambda=1: they finish simultaneously, so the next
    # gap equals the difference of the next waits.
    specs = two_bots()
    w0 = [("3/2", 0), ("2/3", 0), (9, 0), (9, 0)]
    w1 = [(1, 0), ("1/4", 0), (9, 0), (9, 0)]
    tr = run_simple(specs, Deterministic(F(1)), Deterministic(F(1)),
                    explicit(w0, w1), looks=4)
    end0 = tr.runs[0].segments[0].move_end
    end1 = tr.runs[1].segments[0].move_end
    assert end0 == end1 == F(2)
    looks0 = [seg.look_time for seg in tr.runs[0].segments]
    looks1 = [seg.look_time for seg in tr.runs[1].segments]
    assert looks0[1] - looks1[1] == F(2, 3) - F(1, 4)
    assert len(looks0) == len(looks1) == 2  # the look budget of 4 is spent


# ----------------------------------------------------------------------
# 2D -> 1D projection


def test_project_examples():
    p1, p2 = (F(1), F(0)), (F(-1), F(0))
    assert project_scenario_to_line([p1, p2], [(F(0), F(3))]) == [F(0)]
    assert project_scenario_to_line([p1, p2], [(F(1), F(0))]) == [F(1)]
    assert project_scenario_to_line([p1, p2], [(F(-3, 4), F(0))]) == [F(-3, 4)]
    with pytest.raises(DegenerateLineError):
        project_scenario_to_line([p1, p1], [(F(0), F(0))])


def test_project_matches_grid_oracle():
    rng = random.Random(99)
    for _ in range(25):
        p1 = (F(rng.randrange(-8, 9)), F(rng.randrange(-8, 9)))
        p2 = (F(rng.randrange(-8, 9)), F(rng.randrange(-8, 9)))
        if p1 == p2:
            continue
        q = (F(rng.randrange(-32, 33), 4), F(rng.randrange(-32, 33), 4))
        exact = project_scenario_to_line([p1, p2], [q])[0]
        approx = grid_project_coordinate(q, p1, p2)
        assert abs(approx - exact) <= F(1, 128)
