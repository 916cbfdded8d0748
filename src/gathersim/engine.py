"""Continuous-time exact execution of wait-look-compute-move robots on a line.

The run is event driven: each robot's pending event (LOOK, MOVE_START or
MOVE_END) is fully determined by its committed cycle, so the loop always
advances to the earliest pending event.  Simultaneous events are ordered
LOOK before MOVE_END before MOVE_START, ties within a kind by robot id; a
robot is stationary at exactly its move end, and "in the move state" means
the open interval (move_start, move_end).

All quantities are exact rationals (``rational.Rat``), so a look either
observes the other robot at exactly the observer's position (the gathering
decision fires, even for a robot crossing mid-move) or it does not.  The
sign of a wait W or a computation delay C is read off its numerator; a
zero W or C adds nothing to the clock (the look is at the cycle's start,
or the move starts at the look), and ``policies.destination`` returns the
observed position itself for lambda = 1, with no arithmetic.  A look that
finds the other robot mid-move reads its live position as origin +-
speed * (t - move_start), the sign that of its ``shift``; a robot of speed
1 multiplies by nothing, and its travel time is the distance itself.  That
distance is the shift or its negation, by the shift's sign.

The time budget is checked when a cycle's times are fixed, not at each
event: a robot is marked late when its look time, or the end of the move
its look commits, passes ``max_time``.  A cycle's LOOK, MOVE_START and
MOVE_END come in that order, no later than the next LOOK, so only a late
robot's events can pass the budget, and only they are compared with it.

Motion is rigid: a robot always reaches its computed destination within
the cycle.  Non-rigid motion is not simulated; once the remaining distance
drops below the minimum-travel guarantee it degenerates to the rigid case
anyway, so rigid runs cover the regime the analysis depends on.  The
adversary's ``wait_time`` and ``computation_delay`` get the pair (this
robot, other robot) as the run holds them: at a look the looking robot
already holds the ``dest``, ``shift`` and ``travel`` time of the move its
look computed, and at a move end the robot still holds its finished
move's.  A policy is asked for the lambda of the looking robot's cycle;
neither keeps any state of the run, which lives in the two robots.

A run records each robot's committed cycles (``CycleSegment``, which also
keeps what its look observed) and how many events it processed; nothing
else.  ``event_steps`` walks the segments back into the loop's own event
order, and trace files are rendered from it.  ``Trace.events`` is a view
that builds ``Event`` objects from the same walk, for readers that want
an event list; no run or trial reads it.

The engine has no unit of its own: its inputs' times and positions may be
counted in a finer unit than the scenario's (``experiments.run_setup``
picks one in which they are dyadic, for every two-robot run a scenario
compiles), and a trace's segments, horizon and ``position_at`` are in the
run's unit; speeds and lambdas have none.  ``Trace.unit`` says how many
of it make one of the scenario's (1 unless the caller says otherwise), and
``Trace.events`` and the trace files give every time and position in the
scenario's unit.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Mapping

from . import geometry
from .policies import LambdaPolicy, destination
from .rational import ONE, ZERO, Rat

LOOK = "LOOK"
MOVE_START = "MOVE_START"
MOVE_END = "MOVE_END"
DECIDE_GATHERED = "DECIDE_GATHERED"

GATHERED = "GATHERED"
LOOK_BUDGET_EXHAUSTED = "LOOK_BUDGET_EXHAUSTED"
TIME_BUDGET_EXHAUSTED = "TIME_BUDGET_EXHAUSTED"

# Processing order for simultaneous events.
_KIND_TIE = {LOOK: 0, MOVE_END: 1, MOVE_START: 2}

_move_start = attrgetter("move_start")


class DegenerateLineError(ValueError):
    """The two reference positions coincide; no line is defined."""


@dataclass(frozen=True)
class RobotSpec:
    """Static robot parameters; speed is constant for the whole run."""

    id: int
    start: Rat
    speed: Rat

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError("speed must be positive")


@dataclass(frozen=True)
class Budgets:
    max_total_looks: int
    max_time: Rat

    def __post_init__(self):
        if self.max_total_looks <= 0 or self.max_time <= 0:
            raise ValueError("budgets must be positive")


@dataclass(slots=True)
class CycleSegment:
    """One committed cycle: wait, look, compute delay, rigid move.

    The wait W and the delay C follow from the times: C is
    ``move_start - look_time``, and W is ``look_time`` minus the previous
    segment's ``move_end`` (minus 0 in cycle 0).  ``observed`` is the other
    robot's position seen by the look; the robot's own position then is
    ``origin``.  ``lam`` is None for the final cycle in which the robot
    decided it had gathered (``observed`` equals ``origin``); such a cycle
    has a zero-length move interval at the look instant and the robot never
    moves again.
    """

    cycle: int
    look_time: Rat
    lam: Rat | None
    move_start: Rat
    move_end: Rat
    origin: Rat
    destination: Rat
    observed: Rat


@dataclass(frozen=True)
class Event:
    time: Rat
    robot_id: int
    kind: str
    payload: dict


@dataclass
class RobotRun:
    """A robot's committed cycle history over one run."""

    spec: RobotSpec
    segments: list[CycleSegment]
    horizon: Rat

    @property
    def gathered_at(self) -> Rat | None:
        """When the robot decided it had gathered: its deciding look, if any."""
        segs = self.segments
        return segs[-1].look_time if segs and segs[-1].lam is None else None


@dataclass
class Trace:
    """One run: each robot's cycle segments and its end status.

    ``event_count`` is how many events the run processed, and ``horizon``
    the time of the last of them.  Times and positions are in the run's
    unit, ``unit`` of which make one of the scenario's.
    """

    runs: dict[int, RobotRun]
    final_status: str
    horizon: Rat
    event_count: int
    unit: Rat = ONE

    @property
    def robot_ids(self) -> list[int]:
        return sorted(self.runs)

    @property
    def look_count(self) -> dict[int, int]:
        """Looks per robot: each look commits exactly one segment."""
        return {rid: len(run.segments) for rid, run in self.runs.items()}

    @property
    def gathered(self) -> bool:
        return self.final_status == GATHERED

    @cached_property
    def events(self) -> list[Event]:
        """The event log in the scenario's unit, derived from the segments
        (``derive_events``)."""
        return derive_events(self)


def _robot_steps(segments: list[CycleSegment]):
    """One robot's events in its own order, as (key, kind, seg).

    ``key`` is (time, _KIND_TIE rank); a look that decides gathering is
    followed by its DECIDE_GATHERED at the same key, as the run records
    both in one step.
    """
    for seg in segments:
        look = (seg.look_time, _KIND_TIE[LOOK])
        yield look, LOOK, seg
        if seg.lam is None:
            yield look, DECIDE_GATHERED, seg
            return
        yield (seg.move_start, _KIND_TIE[MOVE_START]), MOVE_START, seg
        yield (seg.move_end, _KIND_TIE[MOVE_END]), MOVE_END, seg


def event_steps(trace: Trace):
    """The run's events in its own order, as (time, kind, robot_id, seg).

    ``seg`` is the robot's cycle segment the event belongs to.  The two
    robots' streams are merged as the run chose its next event: of the two
    pending ones the earliest, LOOK before MOVE_END before MOVE_START at
    one instant, then the lower robot id; a DECIDE_GATHERED comes right
    after its LOOK.  A robot's last segments may hold events the run never
    reached (past a budget), so the merge stops after ``trace.event_count``
    events.
    """
    ids = trace.robot_ids
    first, second = (_robot_steps(trace.runs[rid].segments) for rid in ids)
    a, b = next(first, None), next(second, None)
    for _ in range(trace.event_count):
        if b is None or (a is not None and a[0] <= b[0]):
            (t, _rank), kind, seg = a
            rid = ids[0]
            a = next(first, None)
        else:
            (t, _rank), kind, seg = b
            rid = ids[1]
            b = next(second, None)
        yield t, kind, rid, seg


def derive_events(trace: Trace) -> list[Event]:
    """The event log of a run, one ``Event`` per step of ``event_steps``,
    its times and positions in the scenario's unit."""
    unit = trace.unit
    return [Event(t / unit, rid, kind, _payload(kind, seg, unit))
            for t, kind, rid, seg in event_steps(trace)]


def _payload(kind: str, seg: CycleSegment, unit: Rat) -> dict:
    if kind == LOOK:
        return {"cycle": seg.cycle, "own": seg.origin / unit,
                "observed": (seg.observed / unit,)}
    if kind == MOVE_START:
        return {"cycle": seg.cycle, "lam": seg.lam, "destination": seg.destination / unit}
    # MOVE_END, or DECIDE_GATHERED: a deciding segment's destination is its origin
    return {"cycle": seg.cycle, "position": seg.destination / unit}


def position_at(run: RobotRun, t: Rat) -> Rat:
    """Exact position at time t: linear inside a move, constant elsewhere."""
    if t < 0 or t > run.horizon:
        raise ValueError(f"t={t} outside simulated horizon [0, {run.horizon}]")
    i = bisect_right(run.segments, t, key=_move_start) - 1
    if i < 0:
        return run.spec.start
    seg = run.segments[i]
    return geometry.move_position(seg.origin, seg.destination, run.spec.speed,
                                  seg.move_start, seg.move_end, t)


class _LiveRobot:
    """Mutable per-run robot state driving the event loop.

    ``pending`` is the kind of its next event (LOOK, MOVE_START or
    MOVE_END; None once it has decided) and ``next_time`` that event's
    time.  ``dest``, ``shift`` (``dest - pos``) and ``travel`` (the
    duration) are the move its latest look computed, set before the
    adversary chooses its delay and so before the move's segment exists.
    ``late`` is set once its look time or move end is fixed past the time
    budget; only a late robot's events can pass it.  ``unit_speed`` says
    whether the speed is 1, so that a duration is the distance itself.
    """

    __slots__ = ("spec", "unit_speed", "policy", "segments", "pending",
                 "pos", "dest", "shift", "travel", "late", "next_time")

    def __init__(self, spec: RobotSpec, policy: LambdaPolicy):
        self.spec = spec
        self.unit_speed = spec.speed == 1
        self.policy = policy
        self.segments: list[CycleSegment] = []
        self.pending = LOOK
        self.pos = spec.start
        self.dest = spec.start
        self.shift = ZERO
        self.travel = ZERO
        self.late = False
        self.next_time = ZERO

    def enter_cycle(self, start: Rat, adversary, other: _LiveRobot, max_time: Rat) -> None:
        wait = adversary.wait_time(self.spec.id, len(self.segments), (self, other))
        sign = wait._numerator  # lowest terms: the sign of W, and 0 only for W = 0
        if sign < 0:
            raise ValueError("adversary produced a negative wait")
        look_time = self.next_time = start + wait if sign else start
        self.late = look_time > max_time
        self.pending = LOOK

    def position_at(self, t: Rat) -> Rat:
        """Live position query; valid for t at or before the current event.

        A moving robot is read at move_start <= t <= move_end (its MOVE_END
        comes after a LOOK at the same instant), so it is interpolated
        directly: pos +- speed * (t - move_start), with the direction the
        sign of ``shift``; at t = move_end that is exactly ``dest``.
        """
        if self.pending is MOVE_END:  # pos changes only at MOVE_END: it is the origin
            step = t - self.segments[-1].move_start
            if not self.unit_speed:
                step = self.spec.speed * step
            return self.pos + step if self.shift._numerator > 0 else self.pos - step
        return self.pos


def run(robots: list[RobotSpec], policies: Mapping[int, LambdaPolicy],
        adversary, rng_seed, budgets: Budgets, unit: Rat = ONE) -> Trace:
    """Execute one run and return its exact trace.

    The run ends GATHERED once every robot has decided it has gathered,
    or on the look/time budget otherwise.  It is a pure function of
    (robots, policies, adversary, rng_seed, budgets).  ``unit`` is only
    recorded: it says how many of the inputs' time and position unit make
    one of the scenario's.
    """
    if len(robots) != 2:
        raise ValueError("the lambda-class destination rule is pairwise; "
                         "use the multirobot module for n > 2")
    first, second = robots
    if first.id == second.id:
        raise ValueError("robot ids must be distinct")
    if second.id < first.id:
        first, second = second, first
    rng = rng_seed if isinstance(rng_seed, random.Random) else random.Random(rng_seed)

    max_time, max_looks = budgets.max_time, budgets.max_total_looks
    # In robot id order.
    a = _LiveRobot(first, policies[first.id])
    b = _LiveRobot(second, policies[second.id])
    a.enter_cycle(ZERO, adversary, b, max_time)
    b.enter_cycle(ZERO, adversary, a, max_time)

    looks_done = 0
    n_events = 0
    horizon = ZERO
    while True:
        # The earliest pending event; at one instant the lower _KIND_TIE
        # rank, then the lower robot id.
        if a.pending is None:
            if b.pending is None:
                status = GATHERED
                break
            st, other = b, a
        elif (b.pending is None or a.next_time < b.next_time
              or (a.next_time == b.next_time
                  and _KIND_TIE[a.pending] <= _KIND_TIE[b.pending])):
            st, other = a, b
        else:
            st, other = b, a
        t = st.next_time
        if st.late and t > max_time:
            status = TIME_BUDGET_EXHAUSTED
            break
        kind = st.pending
        if kind is LOOK:
            if looks_done >= max_looks:
                status = LOOK_BUDGET_EXHAUSTED
                break
            looks_done += 1
            obs = other.position_at(t)
            pos = st.pos
            cycle = len(st.segments)
            if obs == pos:  # decided: a zero-length move at the look, and no more events
                st.segments.append(CycleSegment(cycle, t, None, t, t, pos, pos, pos))
                st.pending = None
                n_events += 1  # its DECIDE_GATHERED
            else:
                lam = st.policy.sample(rng, cycle)
                dest = st.dest = destination(pos, obs, lam)
                shift = st.shift = dest - pos
                distance = shift if shift._numerator > 0 else -shift
                travel = st.travel = distance if st.unit_speed else distance / st.spec.speed
                compute = adversary.computation_delay(st.spec.id, cycle, (st, other))
                sign = compute._numerator
                if sign < 0:
                    raise ValueError("adversary produced a negative computation delay")
                move_start = st.next_time = t + compute if sign else t
                move_end = move_start + travel
                st.late = move_end > max_time
                st.segments.append(CycleSegment(
                    cycle, t, lam, move_start, move_end, pos, dest, obs))
                st.pending = MOVE_START
        elif kind is MOVE_START:
            st.next_time = st.segments[-1].move_end
            st.pending = MOVE_END
        else:  # MOVE_END
            st.pos = st.dest
            st.enter_cycle(t, adversary, other, max_time)
        n_events += 1
        horizon = t

    return Trace({first.id: RobotRun(first, a.segments, horizon),
                  second.id: RobotRun(second, b.segments, horizon)},
                 status, horizon, n_events, unit)


def project_scenario_to_line(positions_2d, destinations_2d) -> list[Rat]:
    """Project 2D destinations onto the line through the two positions.

    Coordinates are returned in the frame with the robots' midpoint as the
    origin and the first position on the positive axis at +1 (the unit is
    half the separation, which keeps every coordinate rational).
    """
    p1, p2 = positions_2d
    if tuple(p1) == tuple(p2):
        raise DegenerateLineError("initial positions coincide")
    return [geometry.line_coordinate(tuple(d), tuple(p1), tuple(p2))
            for d in destinations_2d]
