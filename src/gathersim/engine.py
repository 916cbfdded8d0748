"""Continuous-time exact execution of wait-look-compute-move robots on a line.

The run is event driven: each robot's pending event (LOOK, MOVE_START or
MOVE_END) is fully determined by its committed cycle, so the loop always
advances to the earliest pending event.  Simultaneous events are ordered
LOOK before MOVE_END before MOVE_START, ties within a kind by robot id; a
robot is stationary at exactly its move end, and "in the move state" means
the open interval (move_start, move_end).

All quantities are exact, so a look either observes the other robot at
exactly the observer's position (the gathering decision fires, even for a
robot crossing mid-move) or it does not.

The event loop (``_scaled_run``) counts each time and position as an int X
over one run-wide denominator D, so its value is X/D.  D starts as the lcm
of the starts' and ``max_time``'s denominators.  When a W, a C, a lambda
step, a division by a speed or a mid-move position needs a finer scale, D
and every live int are multiplied by the missing factor (``_widen``),
over-provisioned so that the next values of the same kind land on the
scale; D is never reduced.  While D is a power of two
(``experiments.run_setup``'s dyadic unit keeps it one for thm1, thm5,
thm4's alpha 1 and thm6) this is shifts and masks.  A wide D still
pays: an adaptive run's reaches thousands of bits, where an int add or
comparison still costs less than a ``Rat`` one, which brings its result
to lowest terms.  ``policies.destination`` takes the ints.  Each cycle is kept as a raw record of ints and its D;
``RobotRun.segments`` builds ``Rat`` segments only when something reads
them, so an untraced trial that reads only look counts, gathering times
and mid-move looks builds none.

W and C are ``Rat``s, from the adversary's ``wait_time`` and
``computation_delay``.  An adversary that declares ``reads_pair`` true
(``AdaptiveThm6``) gets the triple (this robot, other robot, D), the
robots as the loop holds them: at a look the looking robot already holds
the ``dest`` and ``travel`` time of the move its look computed, and at a
move end the robot still holds its finished move's.  Any other gets None.
The sign of W or C is read off its numerator; a zero W or C adds nothing
to the clock (the look is at the cycle's start, or the move starts at the
look), and ``policies.destination`` returns the observed position itself
for lambda = 1, with no arithmetic.  A look that finds the other robot
mid-move reads its live position as origin +- speed * (t - move_start),
the sign that of its move; a robot of speed 1 multiplies by nothing, and
its travel time is the distance itself.

The time budget is checked when a cycle's times are fixed, not at each
event: a robot is marked late when its look time, or the end of the move
its look commits, passes ``max_time``.  A cycle's LOOK, MOVE_START and
MOVE_END come in that order, no later than the next LOOK, so only a late
robot's events can pass the budget, and only they are compared with it.

Motion is rigid: a robot always reaches its computed destination within
the cycle.  Non-rigid motion is not simulated; once the remaining distance
drops below the minimum-travel guarantee it degenerates to the rigid case
anyway, so rigid runs cover the regime the analysis depends on.  A policy
is asked for the lambda of the looking robot's cycle; neither it nor the
adversary keeps any state of the run, which lives in the two robots.

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
from math import gcd, lcm
from operator import attrgetter
from typing import Mapping

from . import geometry
from .policies import LambdaPolicy, destination
from .rational import ONE, Rat, ratio

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


def _segments_of(records: list[tuple]) -> list[CycleSegment]:
    """The ``CycleSegment``s of a robot's raw records (``RobotRun``).

    A value equal to one already built, in its record or as the previous
    record's destination at the same D, is that ``Rat`` again: a zero C or
    travel, lambda 0 or 1, and each origin after the first cost no gcd or
    shift.
    """
    segs = []
    prev_dest = prev_d = prev = None
    for cycle, (look, lam, start, end, origin, dest, obs, d) in enumerate(records):
        t = ratio(look, d)
        if lam is None:  # decided: every position is the origin
            x = ratio(origin, d)
            segs.append(CycleSegment(cycle, t, None, t, t, x, x, x))
            break
        move_start = t if start == look else ratio(start, d)
        move_end = move_start if end == start else ratio(end, d)
        x = prev if origin == prev_dest and d is prev_d else ratio(origin, d)
        y = x if dest == origin else ratio(dest, d)
        seen = y if obs == dest else ratio(obs, d)
        segs.append(CycleSegment(cycle, t, lam, move_start, move_end, x, y, seen))
        prev_dest, prev_d, prev = dest, d, y
    return segs


@dataclass(frozen=True)
class Event:
    time: Rat
    robot_id: int
    kind: str
    payload: dict


class RobotRun:
    """A robot's committed cycle history over one run.

    ``records`` holds the loop's raw records, one per cycle:
    ``(look_time, lam, move_start, move_end, origin, destination, observed,
    D)``, each time and position an int count of 1/D, D the run's scale
    when the record was made.  ``scale`` is the run's last D, a multiple of
    every record's.  ``segments`` builds the ``CycleSegment``s from the
    records on first read; ``looks``, ``gathered_at`` and ``cycle_times``
    read the records themselves.
    """

    __slots__ = ("spec", "horizon", "records", "scale", "_segments")

    def __init__(self, spec: RobotSpec, horizon: Rat, records: list[tuple], scale: int):
        self.spec = spec
        self.horizon = horizon
        self.records = records
        self.scale = scale
        self._segments = None

    @property
    def segments(self) -> list[CycleSegment]:
        segs = self._segments
        if segs is None:
            segs = self._segments = _segments_of(self.records)
        return segs

    def __eq__(self, other):
        if not isinstance(other, RobotRun):
            return NotImplemented
        return ((self.spec, self.horizon, self.segments)
                == (other.spec, other.horizon, other.segments))

    __hash__ = None

    def __repr__(self):
        return f"RobotRun({self.spec!r}, {self.horizon!r}, {self.segments!r})"

    @property
    def looks(self) -> int:
        """How many looks the robot made: each commits one cycle."""
        return len(self.records)

    def cycle_times(self):
        """(look_time, move_start, move_end) of each cycle in order, as ints
        over ``scale``.  The two runs of a trace share their scale, so these
        compare with no ``Rat`` built.

        A record made at an earlier scale rd is rescaled by D // rd, found
        once for each rd (consecutive records share theirs), and by a shift
        when D is a power of two; each tuple is built as it is read.
        """
        d = self.scale
        pow2 = not d & (d - 1)
        rd_seen = k = None
        for look, _lam, start, end, _origin, _dest, _obs, rd in self.records:
            if rd is d:
                yield look, start, end
                continue
            if rd is not rd_seen:
                rd_seen = rd
                k = d.bit_length() - rd.bit_length() if pow2 else d // rd
            if pow2:
                yield look << k, start << k, end << k
            else:
                yield look * k, start * k, end * k

    @property
    def gathered_at(self) -> Rat | None:
        """When the robot decided it had gathered: its deciding look, if any."""
        if not self.records:
            return None
        last = self.records[-1]
        return ratio(last[0], last[7]) if last[1] is None else None


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
        return {rid: run.looks for rid, run in self.runs.items()}

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
    runs, status, horizon, n_events = _scaled_run(first, second, policies, adversary, rng,
                                                  budgets)
    return Trace(runs, status, horizon, n_events, unit)


# Bits added to each power-of-two widening of the loop's scale, and
# the bits an odd widening factor is raised to: a widening then leaves room
# for the next few values of the same kind, so few runs widen more than a
# few times.
_SPARE_BITS = 64


class _ScaledRobot:
    """A robot's state in the event loop.

    Every time and position is an int count of 1/D, D the run's scale, and
    ``_widen`` multiplies them all when D grows.  The speed is ``p`` /
    ``q`` in lowest terms, and ``unit_speed`` says whether it is 1.
    ``pending`` is the kind of its next event (LOOK, MOVE_START or
    MOVE_END; None once it has decided) and ``next_time`` that event's
    time.  ``dest``, ``travel`` (the duration), ``move_start`` and
    ``move_end`` are the move its latest look computed; ``dest`` and
    ``travel`` are set before the adversary chooses the move's C.  ``late``
    is set once its look time or move end is fixed past the time budget;
    only a late robot's events can pass it.  ``records`` holds a
    ``RobotRun``'s raw records.
    """

    __slots__ = ("id", "p", "q", "unit_speed", "policy", "records", "pending",
                 "pos", "dest", "travel", "move_start", "move_end", "late", "next_time")

    def __init__(self, spec: RobotSpec, policy: LambdaPolicy, d: int):
        self.id = spec.id
        speed = spec.speed
        self.p, self.q = speed.numerator, speed.denominator
        self.unit_speed = self.p == self.q
        self.policy = policy
        self.records: list[tuple] = []
        self.pending = LOOK
        self.pos = self.dest = spec.start.numerator * (d // spec.start.denominator)
        self.travel = self.move_start = self.move_end = self.next_time = 0
        self.late = False

    def enter_cycle(self, start: int, d: int, adversary, other: _ScaledRobot,
                    reads: bool) -> int:
        """Draw the next cycle's W and set its look at ``start`` + W, at
        scale ``d``; return the factor the scale grew by to hold W (1 if it
        did not), which the caller applies to ``start`` and its own ints.
        ``reads`` is the adversary's ``reads_pair``."""
        wait = adversary.wait_time(self.id, len(self.records),
                                   (self, other, d) if reads else None)
        n = wait._numerator
        grown = 1
        if n:
            if n < 0:
                raise ValueError("adversary produced a negative wait")
            den = wait._denominator
            # A power-of-two den is tested by a mask and divided out by a
            # shift: no long division of a wide scale on every cycle.
            pow2 = not den & (den - 1)
            if d & (den - 1) if pow2 else d % den:
                grown = _widen(den // gcd(d, den), self, other)
                d *= grown
                start *= grown
            start += n * ((d >> (den.bit_length() - 1)) if pow2 else d // den)
        self.next_time = start
        self.pending = LOOK
        return grown


def _widen(m: int, a: _ScaledRobot, b: _ScaledRobot) -> int:
    """Grow the scale by a multiple f of ``m`` > 1 and return f, having
    multiplied each robot's live ints by it.

    A power of two m gets ``_SPARE_BITS`` more bits, by shifts; any other
    is raised to the power that makes it about ``_SPARE_BITS`` wide.
    """
    if m & (m - 1):
        f = m ** max(1, _SPARE_BITS // m.bit_length())
        for r in (a, b):
            r.pos *= f
            r.dest *= f
            r.travel *= f
            r.move_start *= f
            r.move_end *= f
            r.next_time *= f
        return f
    s = m.bit_length() - 1 + _SPARE_BITS
    for r in (a, b):
        r.pos <<= s
        r.dest <<= s
        r.travel <<= s
        r.move_start <<= s
        r.move_end <<= s
        r.next_time <<= s
    return 1 << s


def _scaled_run(first: RobotSpec, second: RobotSpec, policies, adversary, rng, budgets):
    """The event loop: (runs, status, horizon, event count) of the run.

    Each time and position is an int X over one run-wide denominator D.  D
    starts as the lcm of the starts' and ``max_time``'s denominators; a W,
    a C, a lambda step, a division by a speed or a mid-move position that
    needs a finer scale grows it (``_widen``), with every live int, and it
    is never reduced.  An adversary that declares ``reads_pair`` true gets
    (this robot, other robot, D) for the pair, any other None.
    """
    max_time, max_looks = budgets.max_time, budgets.max_total_looks
    reads = getattr(adversary, "reads_pair", False)
    d = lcm(first.start.denominator, second.start.denominator, max_time.denominator)
    limit = max_time.numerator * (d // max_time.denominator)
    # In robot id order.
    a = _ScaledRobot(first, policies[first.id], d)
    b = _ScaledRobot(second, policies[second.id], d)
    for st, other in ((a, b), (b, a)):
        grown = st.enter_cycle(0, d, adversary, other, reads)
        d *= grown
        limit *= grown
        st.late = st.next_time > limit

    looks_done = 0
    n_events = 0
    horizon = 0
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
        if st.late and t > limit:
            status = TIME_BUDGET_EXHAUSTED
            break
        kind = st.pending
        if kind is LOOK:
            if looks_done >= max_looks:
                status = LOOK_BUDGET_EXHAUSTED
                break
            looks_done += 1
            if other.pending is MOVE_END:
                # Mid-move, or at its end after a LOOK at the same instant:
                # origin +- speed * (t - move_start).
                step = t - other.move_start
                q = other.q
                if q != 1 and step % q:
                    grown = _widen(q // gcd(q, step), a, b)
                    d *= grown
                    limit *= grown
                    t *= grown
                    step *= grown
                if not other.unit_speed:
                    step = step * other.p // q
                obs = other.pos + step if other.dest > other.pos else other.pos - step
            else:
                obs = other.pos
            pos = st.pos
            records = st.records
            cycle = len(records)
            if obs == pos:  # decided: a zero-length move at the look, and no more events
                records.append((t, None, t, t, pos, pos, pos, d))
                st.pending = None
                n_events += 1  # its DECIDE_GATHERED
            else:
                lam = st.policy.sample(rng, cycle)
                dest = destination(pos, obs, lam)
                if type(dest) is not int:  # off the scale: fold its denominator in
                    den = dest._denominator
                    grown = _widen(den, a, b)
                    d *= grown
                    limit *= grown
                    t *= grown
                    pos *= grown
                    obs *= grown
                    dest = dest._numerator * (grown // den)
                distance = dest - pos if dest > pos else pos - dest
                p = st.p
                if p != 1 and distance % p:
                    grown = _widen(p // gcd(p, distance), a, b)
                    d *= grown
                    limit *= grown
                    t *= grown
                    pos *= grown
                    obs *= grown
                    dest *= grown
                    distance *= grown
                travel = distance if st.unit_speed else distance * st.q // p
                st.dest = dest
                st.travel = travel
                compute = adversary.computation_delay(st.id, cycle,
                                                      (st, other, d) if reads else None)
                n = compute._numerator
                if n:
                    if n < 0:
                        raise ValueError("adversary produced a negative computation delay")
                    den = compute._denominator
                    pow2 = not den & (den - 1)  # as in enter_cycle
                    if d & (den - 1) if pow2 else d % den:
                        grown = _widen(den // gcd(d, den), a, b)
                        d *= grown
                        limit *= grown
                        t *= grown
                        pos *= grown
                        obs *= grown
                        dest *= grown
                        travel *= grown
                    move_start = t + n * ((d >> (den.bit_length() - 1)) if pow2 else d // den)
                else:
                    move_start = t
                move_end = move_start + travel
                st.move_start = st.next_time = move_start
                st.move_end = move_end
                st.late = move_end > limit
                records.append((t, lam, move_start, move_end, pos, dest, obs, d))
                st.pending = MOVE_START
        elif kind is MOVE_START:
            st.next_time = st.move_end
            st.pending = MOVE_END
        else:  # MOVE_END
            st.pos = st.dest
            grown = st.enter_cycle(t, d, adversary, other, reads)
            if grown != 1:
                d *= grown
                limit *= grown
                t *= grown
            st.late = st.next_time > limit
        n_events += 1
        horizon = t

    horizon = ratio(horizon, d)
    return ({first.id: RobotRun(first, horizon, records=a.records, scale=d),
             second.id: RobotRun(second, horizon, records=b.records, scale=d)},
            status, horizon, n_events)


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
