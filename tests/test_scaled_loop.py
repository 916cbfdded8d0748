"""The integer event loop against an independent rational loop on
oblivious set-ups.

``engine.run`` counts every time and position as an int over one run-wide
denominator.  ``oracles.reference_events`` runs the same set-up in a loop
of its own on the set-up's rationals (``Fraction`` or ``Rat``) and records
each event as it happens, so each example runs both loops and requires the
same events, status, horizon, event count and look counts, or the same
exception with the same message; the run's trace text must equal
``oracles.reference_trace_text``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, note, settings, strategies as st

from oracles import reference_events, reference_trace_text

from gathersim.adversary import (AdaptiveThm6, ObliviousExplicit, ObliviousGenerated, PerRobot,
                                 ScheduleUnderrunError, TauBounded)
from gathersim.cli import trace_to_jsonable
from gathersim.engine import (LOOK_BUDGET_EXHAUSTED, TIME_BUDGET_EXHAUSTED, Budgets, RobotSpec,
                              run)
from gathersim.policies import (THREE_CHOICE, Deterministic, Oracle, OracleScriptExhausted,
                                policy_from_descriptor)
from gathersim.rational import Rat


class _Unchecked:
    """Per-robot (W, C) lists taken as they are, negative values included;
    past its list a robot's schedule runs out as an explicit one does."""

    def __init__(self, schedules):
        self.schedules = schedules

    def _pair(self, robot_id, cycle):
        seq = self.schedules[robot_id]
        if cycle >= len(seq):
            raise ScheduleUnderrunError(f"robot {robot_id} ran out at cycle {cycle}")
        return seq[cycle]

    def wait_time(self, robot_id, cycle, pair):
        return self._pair(robot_id, cycle)[0]

    def computation_delay(self, robot_id, cycle, pair):
        return self._pair(robot_id, cycle)[1]


def outcome(robots, policies, adversary, seed, budgets):
    """(status, horizon, event count, look counts, events) of a run, with
    its trace, or (exception type, message) if it raised."""
    try:
        tr = run(robots, policies, adversary, random.Random(seed), budgets)
    except (ValueError, ScheduleUnderrunError, OracleScriptExhausted) as exc:
        return (type(exc), str(exc)), None
    events = [(e.time, e.robot_id, e.kind, e.payload) for e in tr.events]
    return (tr.final_status, tr.horizon, tr.event_count, tr.look_count, events), tr


def reference_outcome(robots, policies, adversary, seed, budgets):
    """``outcome``'s tuple from ``oracles.reference_events``."""
    try:
        events, status, look_count, horizon = reference_events(
            robots, policies, adversary, random.Random(seed), budgets)
    except (ValueError, ScheduleUnderrunError, OracleScriptExhausted) as exc:
        return type(exc), str(exc)
    return status, horizon, len(events), look_count, events


def assert_matches_reference(setup):
    got, tr = outcome(*setup)
    assert got == reference_outcome(*setup)
    if tr is not None:
        assert trace_to_jsonable(tr) == reference_trace_text(tr)
    return got


# W and C values; lambdas (from Oracle scripts and FINITE_MIXTURE policies);
# starts; time budgets, some of which cut runs short.
_DELAYS = ["0", "0", "1/2", "1/3", "3/10", "1", "5/4"]
_LAMBDAS = ["1", "1/2", "1/3", "-1/2", "-1", "3/2", "5/4", "0", "2/3"]
_STARTS = ["0", "1", "-1/3", "5/2", "2/5"]
_TIMES = ["1/2", "7/3", "5", "21/2", "1000000"]
_SPEEDS = ["1", "2", "3/2"]
_IDS = [(0, 1), (1, 0), (2, 10), (10, 2), (-1, 3)]  # listed in either order


@st.composite
def oblivious_setups(draw):
    num = draw(st.sampled_from([Fraction, Rat]))  # plain Fraction inputs, or Rats
    ids = draw(st.sampled_from(_IDS))
    starts = draw(st.lists(st.sampled_from(_STARTS), min_size=2, max_size=2, unique=True))
    robots = [RobotSpec(rid, num(x), num(draw(st.sampled_from(_SPEEDS))))
              for rid, x in zip(ids, starts)]
    policies = {}
    for rid in ids:
        kind = draw(st.sampled_from(["oracle", "mixture", "deterministic"]))
        if kind == "oracle":  # a short script runs out
            script = draw(st.lists(st.sampled_from(_LAMBDAS), min_size=0, max_size=14))
            policies[rid] = Oracle([num(x) for x in script])
        elif kind == "mixture":
            lams = draw(st.lists(st.sampled_from(_LAMBDAS), min_size=1, max_size=3, unique=True))
            weights = draw(st.lists(st.integers(1, 3), min_size=len(lams), max_size=len(lams)))
            policies[rid] = policy_from_descriptor({
                "kind": "FINITE_MIXTURE",
                "choices": [[lam, f"{w}/{sum(weights)}"] for lam, w in zip(lams, weights)]})
        else:
            policies[rid] = Deterministic(num(draw(st.sampled_from(_LAMBDAS))))
    kind = draw(st.sampled_from(["explicit", "unchecked", "tau", "per_robot"]))
    if kind in ("explicit", "unchecked"):
        values = _DELAYS + (["-1/4"] if kind == "unchecked" else [])
        pairs = st.tuples(st.sampled_from(values), st.sampled_from(values))
        schedules = {rid: [(num(w), num(c)) for w, c in draw(st.lists(pairs, min_size=1,
                                                                      max_size=14))]
                     for rid in ids}
        adversary = (ObliviousExplicit if kind == "explicit" else _Unchecked)(schedules)
    elif kind == "tau":
        adversary = TauBounded(num(draw(st.sampled_from(["1/10", "1", "1/3"]))), 0)
    else:
        adversary = PerRobot({ids[0]: ObliviousGenerated("constant", (num(0), num(0)), 0),
                              ids[1]: TauBounded(num(1, 2), 0, num(13, 20))})
    if getattr(adversary, "seeded", False):
        adversary = adversary.for_trial(draw(st.integers(0, 10 ** 6)))
    budgets = Budgets(draw(st.integers(1, 16)), num(draw(st.sampled_from(_TIMES))))
    return robots, policies, adversary, draw(st.integers(0, 10 ** 6)), budgets


def _setup(waits0, waits1, lam0="1/2", lam1="1/2", script=12, looks=12, max_time="1000000",
           speeds=("1", "1")):
    """An unchecked explicit set-up; robot 1's oracle script has ``script``
    entries."""
    robots = [RobotSpec(0, Rat(0), Rat(speeds[0])), RobotSpec(1, Rat(1), Rat(speeds[1]))]
    policies = {0: Deterministic(Rat(lam0)), 1: Oracle([Rat(lam1)] * script)}
    adversary = _Unchecked({0: [(Rat(w), Rat(c)) for w, c in waits0],
                            1: [(Rat(w), Rat(c)) for w, c in waits1]})
    return robots, policies, adversary, 0, Budgets(looks, Rat(max_time))


_NEGATIVE_W = _setup([("1", "0")] * 5, [("1", "0"), ("-1/4", "0")])
_NEGATIVE_C = _setup([("1", "0")] * 5, [("1/3", "-1/4")] * 5)
_UNDERRUN = _setup([("1", "0")], [("1", "0")] * 5)
_EXHAUSTED = _setup([("1", "0")] * 9, [("1/3", "0")] * 9, lam1="1/3", script=3)
_TIME_BUDGET = _setup([("1/2", "1/3")] * 9, [("1/3", "0")] * 9, lam0="1/3", max_time="7/3",
                      speeds=("3/2", "2"))
_LOOK_BUDGET = _setup([("1/2", "1/3")] * 9, [("1/3", "0")] * 9, lam0="-1", looks=5,
                      speeds=("2", "3/2"))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(setup=oblivious_setups())
@example(setup=_NEGATIVE_W)
@example(setup=_NEGATIVE_C)
@example(setup=_UNDERRUN)
@example(setup=_EXHAUSTED)
@example(setup=_TIME_BUDGET)
@example(setup=_LOOK_BUDGET)
def test_integer_loop_equals_rat_loop(setup):
    robots, policies, adversary, _seed, budgets = setup
    note(f"robots={robots} policies={policies} adversary={adversary} budgets={budgets}")
    assert_matches_reference(setup)


@pytest.mark.parametrize("setup,expected", [
    (_NEGATIVE_W, (ValueError, "adversary produced a negative wait")),
    (_NEGATIVE_C, (ValueError, "adversary produced a negative computation delay")),
    (_UNDERRUN, (ScheduleUnderrunError, "robot 0 ran out at cycle 1")),
    (_EXHAUSTED, (OracleScriptExhausted, "oracle script of length 3 exhausted")),
], ids=["negative_wait", "negative_delay", "underrun", "exhausted_oracle"])
def test_both_loops_raise_alike(setup, expected):
    assert assert_matches_reference(setup) == expected


@pytest.mark.parametrize("setup,status", [
    (_TIME_BUDGET, TIME_BUDGET_EXHAUSTED),
    (_LOOK_BUDGET, LOOK_BUDGET_EXHAUSTED),
], ids=["time_budget", "look_budget"])
def test_both_loops_end_alike_on_a_budget(setup, status):
    assert assert_matches_reference(setup)[0] == status


@pytest.mark.parametrize("adversary", [
    ObliviousExplicit({0: [(Rat(1, 2), Rat(1, 3))] * 9, 1: [(Rat(1, 3), Rat(0))] * 9}),
    ObliviousGenerated("uniform", (Rat(0), Rat(1), Rat(0), Rat(1, 3)), 0).for_trial(7),
    TauBounded(Rat(1, 3), 0).for_trial(7),
    PerRobot({0: ObliviousGenerated("constant", (Rat(0), Rat(0)), 0),
              1: TauBounded(Rat(1, 2), 0, Rat(13, 20)).for_trial(7)}),
    AdaptiveThm6({0: Rat(2), 1: Rat(1)}),
    _TIME_BUDGET[2],
], ids=["explicit", "generated", "tau", "per_robot", "adaptive", "unchecked"])
def test_every_adversary_yields_raw_records(adversary):
    robots = [RobotSpec(0, Rat(1), Rat(1)), RobotSpec(1, Rat(0), Rat(3, 2))]
    policies = {0: THREE_CHOICE, 1: THREE_CHOICE}
    tr = run(robots, policies, adversary, 3, Budgets(12, Rat(1000)))
    for r in tr.runs.values():
        assert r._segments is None  # nothing built a segment
        assert r.records and all(len(rec) == 8 for rec in r.records)
        assert all(type(x) is int for rec in r.records for x in rec[:1] + rec[2:])
        assert all(type(r.scale) is int and r.scale % rec[7] == 0 for rec in r.records)


@pytest.mark.parametrize("speeds,lams,wait,finer", [
    (("1", "1"), ("1/2", "-1/2"), "1/4", "1/1267650600228229401496703205376"),  # C 2**-100
    (("1", "3/2"), ("1/3", "1/2"), "1/3", "1/7"),
], ids=["power_of_two", "odd"])
def test_cycle_times_are_the_segments_times_on_the_final_scale(speeds, lams, wait, finer):
    # Robot 0's C turns finer after its second cycle, so the scale widens
    # more than once: by powers of two only, or also by odd factors (a
    # lambda of 1/3, a speed of 3/2, a W of 1/3, a C of 1/7).
    robots = [RobotSpec(0, Rat(0), Rat(speeds[0])), RobotSpec(1, Rat(1), Rat(speeds[1]))]
    policies = {0: Deterministic(Rat(lams[0])), 1: Deterministic(Rat(lams[1]))}
    adversary = ObliviousExplicit({0: [(Rat(1, 2), Rat(1, 4))] * 2 + [(Rat(1), Rat(finer))] * 14,
                                   1: [(Rat(wait), Rat(0))] * 16})
    tr = run(robots, policies, adversary, 0, Budgets(16, Rat(1000)))
    for r in tr.runs.values():
        d = r.scale
        assert (d & (d - 1) == 0) == (wait == "1/4")
        assert len({rec[7] for rec in r.records}) > 1  # records made at several scales
        assert list(r.cycle_times()) == [
            tuple((x * d).numerator for x in (s.look_time, s.move_start, s.move_end))
            for s in r.segments]
