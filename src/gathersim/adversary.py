"""Schedulers that decide wait times and computation delays.

Oblivious kinds commit every (W, C) as a pure function of
(robot id, cycle index, adversary seed) before the run; the adaptive kind
decides from the run as it stands, so that every later look catches the
other robot strictly mid-move.  Both ``wait_time`` and
``computation_delay`` get the pair (this robot, other robot) as the run
holds them; the oblivious kinds do not read it.  No kind keeps a run's
state: a trial copies only a seeded kind, to give it the trial's seed.

Every time value of an oblivious kind enters its draws linearly, so
``in_unit(k)`` gives the same adversary with times counted in units k
times finer: each pair it draws is k times the original's, from the same
RNG calls.  ``time_values`` lists the values that scaling multiplies; the
adaptive kind has none it could scale, as each wait after its first is a
literal 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .engine import LOOK, MOVE_END
from .rational import (ONE, U01_DEN, ZERO, Rat, below, grid_point, parse_rat, spawn_rng,
                       uniform_closed)


class AdversaryError(Exception):
    pass


class ScheduleUnderrunError(AdversaryError):
    """The adversary cannot supply the next (W, C) pair."""


class InfeasibleDelayError(AdversaryError):
    """The adaptive strategy found an empty feasible interval (engine bug)."""


@dataclass
class _Oblivious:
    """Base for adversaries whose pairs are precommitted.

    ``wait_time`` draws a cycle's (W, C) pair and keeps its C, so the
    ``computation_delay`` of the same cycle does not draw the pair again.
    The pair is pure in (robot, cycle, seed), so trials that share an
    unseeded adversary share what it keeps without changing a value.
    ``ObliviousExplicit`` draws nothing: it reads both values from its
    schedules in place and keeps nothing.
    """

    # robot id -> (cycle, C) of the pair wait_time last drew for the robot
    _drawn: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    seeded = False  # whether a trial copies it with its own seed (``for_trial``)

    def next_delays(self, robot_id: int, cycle: int) -> tuple[Rat, Rat]:
        raise NotImplementedError

    def time_values(self) -> list[Rat]:
        """Every time value the draws are linear in."""
        raise NotImplementedError

    def in_unit(self, k: Rat):
        """The same adversary with every time value multiplied by ``k``."""
        raise NotImplementedError

    def wait_time(self, robot_id: int, cycle: int, pair) -> Rat:
        """The cycle's W, committed before the run; the pair is not read."""
        w, c = self.next_delays(robot_id, cycle)
        self._drawn[robot_id] = (cycle, c)
        return w

    def computation_delay(self, robot_id, cycle, pair) -> Rat:
        """The cycle's C, committed before the run; the look is not read."""
        drawn = self._drawn.get(robot_id)
        if drawn is not None and drawn[0] == cycle:
            return drawn[1]
        return self.next_delays(robot_id, cycle)[1]

    def for_trial(self, seed: int):
        """A copy drawing from ``seed``, parsed values shared, for one trial
        of a ``seeded`` adversary; an unseeded one is shared by every trial."""
        # A third of copy.copy's time, once per trial; it starts with no drawn pairs.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, seed=seed, _drawn={})
        return twin


@dataclass
class ObliviousExplicit(_Oblivious):
    """Literal per-robot (W, C) lists, read in place: ``wait_time`` and
    ``computation_delay`` index the schedule and keep nothing, and go
    through ``next_delays`` only to raise its ``ScheduleUnderrunError``."""

    schedules: Mapping[int, Sequence[tuple[Rat, Rat]]]

    def __post_init__(self):
        if any(w < 0 or c < 0 for seq in self.schedules.values() for w, c in seq):
            raise AdversaryError("waits and delays must be non-negative")
        for rid, seq in self.schedules.items():
            if not seq:  # its robot's first cycle would exhaust it
                raise AdversaryError(f"schedules.{rid}: at least one (W, C) pair required")

    def next_delays(self, robot_id, cycle):
        try:
            seq = self.schedules[robot_id]
        except KeyError:
            raise ScheduleUnderrunError(f"no schedule for robot {robot_id}")
        if cycle >= len(seq):
            raise ScheduleUnderrunError(
                f"robot {robot_id} exhausted its {len(seq)}-entry schedule at cycle {cycle}"
            )
        w, c = seq[cycle]
        return (w, c)

    def wait_time(self, robot_id, cycle, pair):
        try:
            return self.schedules[robot_id][cycle][0]
        except (KeyError, IndexError):
            return self.next_delays(robot_id, cycle)[0]

    def computation_delay(self, robot_id, cycle, pair):
        try:
            return self.schedules[robot_id][cycle][1]
        except (KeyError, IndexError):
            return self.next_delays(robot_id, cycle)[1]

    def time_values(self):
        return [x for seq in self.schedules.values() for pair in seq for x in pair]

    def in_unit(self, k):
        return ObliviousExplicit({rid: [(w * k, c * k) for w, c in seq]
                                  for rid, seq in self.schedules.items()})


_GENERATOR_PARAMS = {"constant": ("w", "c"), "uniform": ("w_lo", "w_hi", "c_lo", "c_hi")}


@dataclass
class ObliviousGenerated(_Oblivious):
    """Seeded generator; each (W, C) is pure in (robot, cycle, seed).

    generator "uniform": W ~ U[w_lo, w_hi], C ~ U[c_lo, c_hi].
    generator "constant": W = w, C = c for every cycle.
    ``values`` holds the generator's parameters in that order.
    """

    generator: str
    values: tuple
    seed: int

    def __post_init__(self):
        if self.generator == "uniform":
            w_lo, w_hi, c_lo, c_hi = self.values
            if not (0 <= w_lo <= w_hi and 0 <= c_lo <= c_hi):
                raise AdversaryError("uniform ranges need 0 <= lo <= hi")
        elif min(self.values) < 0:
            raise AdversaryError("w and c must be non-negative")
        self.seeded = self.generator != "constant"  # a constant pair reads no seed

    def next_delays(self, robot_id, cycle):
        if self.generator == "constant":
            return self.values
        w_lo, w_hi, c_lo, c_hi = self.values
        rng = spawn_rng(self.seed, "wc", robot_id, cycle)
        return (uniform_closed(rng, w_lo, w_hi), uniform_closed(rng, c_lo, c_hi))

    def time_values(self):
        return list(self.values)

    def in_unit(self, k):
        return ObliviousGenerated(self.generator, tuple(v * k for v in self.values), self.seed)


@dataclass
class TauBounded(_Oblivious):
    """Every cycle satisfies W + C > tau.

    The sum is uniform on (tau, 2*tau] and the look offset W is uniform on
    [0, W+C]; both ranges are a bounded family chosen so expectations are
    finite.  ``fixed_sum`` pins W + C to a constant instead (it must still
    exceed tau).
    """

    tau: Rat
    seed: int
    fixed_sum: Rat | None = None
    seeded = True

    def __post_init__(self):
        if self.tau <= 0:
            raise AdversaryError("tau must be positive")
        if self.fixed_sum is not None and self.fixed_sum <= self.tau:
            raise AdversaryError("fixed_sum must exceed tau")

    def next_delays(self, robot_id, cycle):
        rng = spawn_rng(self.seed, "wc", robot_id, cycle)
        if self.fixed_sum is not None:
            total = self.fixed_sum
            below(rng, U01_DEN)  # keep stream alignment with the drawn-sum case
        else:
            total = self.tau * (1 + grid_point(1 + below(rng, U01_DEN)))
        # uniform_closed(rng, ZERO, total), without adding or subtracting zero
        w = total * grid_point(below(rng, U01_DEN + 1))
        return (w, total - w)

    def time_values(self):
        return [self.tau] if self.fixed_sum is None else [self.tau, self.fixed_sum]

    def in_unit(self, k):
        return TauBounded(self.tau * k, self.seed,
                          None if self.fixed_sum is None else self.fixed_sum * k)


@dataclass
class PerRobot(_Oblivious):
    """Composite assigning a different oblivious adversary to each robot."""

    parts: Mapping[int, _Oblivious]

    def __post_init__(self):
        for rid, part in self.parts.items():
            if not isinstance(part, _Oblivious):  # it precommits no pairs
                raise AdversaryError(f"the part for robot {rid} must be oblivious")
        self.seeded = any(part.seeded for part in self.parts.values())

    def next_delays(self, robot_id, cycle):
        try:
            part = self.parts[robot_id]
        except KeyError:
            raise ScheduleUnderrunError(f"no adversary for robot {robot_id}")
        return part.next_delays(robot_id, cycle)

    def time_values(self):
        return [x for part in self.parts.values() for x in part.time_values()]

    def in_unit(self, k):
        return PerRobot({rid: part.in_unit(k) for rid, part in self.parts.items()})

    def for_trial(self, seed):
        """A copy whose seeded parts draw from ``seed``; the others are shared."""
        twin = object.__new__(PerRobot)
        twin.__dict__.update(self.__dict__, _drawn={}, parts={
            rid: part.for_trial(seed) if part.seeded else part
            for rid, part in self.parts.items()})
        return twin


@dataclass
class AdaptiveThm6:
    """Adaptive adversary that prevents gathering of two equal-speed robots.

    After a robot's look (its computed destination now known) it picks the
    current computation delay so that the robot's move interval strictly
    straddles the other robot's next look.  Every look after the
    chronologically first one therefore observes the other robot strictly
    mid-move, so exact collocation is never seen.

    It decides from the run as it stands and keeps none of it.  Each wait
    after a robot's first is 1, or 0 after a zero-length move (an
    immediate re-look), so it follows from the ``travel`` of the robot's
    last move.  A robot's ``next_time`` is the time of its ``pending``
    event: its look time while that is a LOOK, its move end while a
    MOVE_END.

    The feasible delays are (max(hi - travel, 0), hi), hi the time from the
    look to the other robot's next look.  Their width is ``travel`` when
    hi >= travel and ``hi`` otherwise, so C is hi minus half the width and
    the interval's ends are never built.  Signs (of ``travel``, ``hi`` and
    ``shift``) are read off the numerator, which holds the value's sign in
    lowest terms.
    """

    initial_waits: Mapping[int, Rat]
    seeded = False

    def __post_init__(self):
        waits = list(self.initial_waits.values())
        if len(waits) != 2 or waits[0] == waits[1]:
            raise AdversaryError("need two distinct initial waits")
        if any(w < 0 for w in waits):
            raise AdversaryError("waits must be non-negative")

    def time_values(self):
        """None: each wait after a robot's first is a literal 0 or 1 in the
        scenario's unit."""
        return None

    @staticmethod
    def _wait_after(robot) -> Rat:
        """The wait that follows ``robot``'s last move: 0 after a zero-length
        one, else 1."""
        return ONE if robot.travel._numerator else ZERO

    def wait_time(self, robot_id, cycle, pair):
        if cycle == 0:
            return self.initial_waits[robot_id]
        return self._wait_after(pair[0])

    def computation_delay(self, robot_id, cycle, pair):
        """The cycle's C after the look of pair[0], the other robot pair[1].

        Reads the looking robot's ``travel`` and the sign of its ``shift``
        (destination minus position) for the move its look computed."""
        me, other = pair
        travel = me.travel
        if not travel._numerator:
            # Zero-length move: its wait of 0 forces an immediate re-look.
            return ZERO
        other_look, other_pos_at_look = self._other_next_look(other)

        # Move interval (t+C, t+C+travel) must strictly contain the other
        # robot's next look; C is additionally clamped to be non-negative.
        # As travel > 0, the interval is empty only when hi <= 0.
        hi = other_look - me.next_time
        if hi._numerator <= 0:
            raise InfeasibleDelayError(
                f"empty feasible delay interval (0, {hi}) for robot {me.spec.id}"
            )
        width = travel if hi >= travel else hi
        half = width / 2
        # With C = hi - half the other robot looks half after the move
        # starts, strictly inside it (half < travel), where this robot has
        # come speed * half of the way from its position towards its
        # destination.
        step = half if me.spec.speed == 1 else me.spec.speed * half
        if other_pos_at_look - me.pos == (step if me.shift._numerator > 0 else -step):
            # Only a single delay value puts us exactly on the other robot at
            # its look; any other interior point avoids the coincidence.
            return hi - width + width / 4
        return hi - half

    def _other_next_look(self, other):
        """The other robot's next look time and its position then."""
        if other.pending == LOOK:
            return other.next_time, other.pos
        if other.pending == MOVE_END:
            return other.next_time + self._wait_after(other), other.dest
        raise InfeasibleDelayError(f"other robot's next event is {other.pending} at a look")


AdversaryPolicy = ObliviousExplicit | ObliviousGenerated | TauBounded | PerRobot | AdaptiveThm6


def adversary_from_descriptor(desc: dict) -> AdversaryPolicy:
    """Instantiate a fresh adversary from its serializable descriptor.

    A seeded kind gets seed 0, which ``for_trial`` replaces with each
    trial's seed."""
    if not isinstance(desc, dict):
        raise AdversaryError("descriptor must be an object")
    fields = dict(desc)  # each read pops its key, so what is left is unknown
    kind = fields.pop("kind", None)
    if kind == "OBLIVIOUS_EXPLICIT":
        adversary = ObliviousExplicit({
            int(rid): [(parse_rat(w), parse_rat(c)) for w, c in seq]
            for rid, seq in fields.pop("schedules").items()
        })
    elif kind == "OBLIVIOUS_GENERATED":
        generator, params = fields.pop("generator"), dict(fields.pop("params"))
        names = _GENERATOR_PARAMS.get(generator)
        if names is None:
            raise AdversaryError(f"unknown generator {generator!r}")
        values = tuple(parse_rat(params.pop(key)) for key in names)
        if params:
            raise AdversaryError(f"unknown key 'params.{next(iter(params))}'")
        adversary = ObliviousGenerated(generator, values, 0)
    elif kind == "TAU_BOUNDED":
        fixed = fields.pop("fixed_sum", None)
        adversary = TauBounded(parse_rat(fields.pop("tau")), 0,
                               parse_rat(fixed) if fixed is not None else None)
    elif kind == "ASYNC_IC":  # zero computation delay, waits uniform on [w_lo, w_hi]
        waits = (parse_rat(fields.pop("w_lo")), parse_rat(fields.pop("w_hi")))
        adversary = ObliviousGenerated("uniform", (*waits, ZERO, ZERO), 0)
    elif kind == "PER_ROBOT":
        parts = {}
        for rid, sub in fields.pop("robots").items():
            try:
                parts[int(rid)] = adversary_from_descriptor(sub)
            except AdversaryError as exc:  # name the part that failed
                raise AdversaryError(f"robots.{rid}: {exc}") from exc
        adversary = PerRobot(parts)
    elif kind == "ADAPTIVE_THM6":
        adversary = AdaptiveThm6({int(rid): parse_rat(w)
                                  for rid, w in fields.pop("initial_waits").items()})
    else:
        raise AdversaryError(f"unknown adversary kind {kind!r}")
    if fields:
        raise AdversaryError(f"unknown key {next(iter(fields))!r}")
    return adversary
