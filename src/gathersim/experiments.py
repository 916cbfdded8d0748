"""Runnable constructions of the theorem-style experiments.

Parsing compiles each mode in one pass into the params and ``RunSetup``
variants its trials read.  The two-robot modes (``two_robot``, ``ssync``,
``thm4``, ``thm6``) all run ``two_robot_trial``; a set-up's trace reader
hands in the mode's share of the report.  The other modes have trial
functions of their own.  The CLI fans trials out and pools the outcomes;
the acceptance suite drives the same functions.

Every two-robot run a scenario compiles, multirobot's last pair included,
is a ``RunSetup`` run by ``run_trial`` in its own unit of time and distance
(``run_setup``): the scenario's unit divided by K, the odd part of the
least common multiple of the denominators of its starts, time budget and
adversary time values.  Scaling both by K changes no comparison, no
equality, no speed and no lambda, so the rule reads nothing else; with
power-of-two speeds and dyadic lambdas, every engine value is then dyadic:
the engine loop's denominator stays a power of two, and the
``rational.Rat`` values read back from a trace add and compare by shifts
instead of gcds.  A
trace records its unit (``Trace.unit``), and whatever a trial reports
from it is read back in the scenario's unit.

A trial takes the compiled objects of its ``cli.Scenario`` and parses
nothing.  No policy or adversary keeps a run's state (the run keeps it in
its robots), so every trial shares the compiled policies and unseeded
adversaries; only a seeded oblivious adversary (of a ``PerRobot``, its
seeded parts) is copied with the trial's seed (``for_trial``), which is
derived only for it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from math import lcm
from operator import itemgetter
from typing import Callable, NamedTuple

from . import geometry
from .adversary import ObliviousExplicit
from .analysis import (
    looks_mid_move,
    looks_see_midmove,
    segment_attempts,
    segment_phases,
)
from .engine import (
    DECIDE_GATHERED,
    GATHERED,
    LOOK,
    MOVE_END,
    MOVE_START,
    Budgets,
    RobotSpec,
    Trace,
    event_steps,
    position_at,
    run,
)
from .geometry import add, scale, sqdist, sub, unit_from_slope
from .multirobot import (
    Configuration,
    Entity,
    merge_positions,
    line_gather_step,
    reduce_to_line,
)
from .policies import (
    Oracle,
    gather_lambda_oracle,
    OPPOSITE_DIRECTIONS,
    SAME_DIRECTION,
)
from .rational import HALF, ONE, ZERO, Rat, derive_seed, rat_sqrt, spawn_rng, u01

BIG_TIME = Rat(10 ** 9)


@dataclass
class TrialOutcome:
    """Per-trial result row plus pooled statistic contributions."""

    trial: int
    gathered: bool
    total_looks: int
    n_attempts: int | None = None
    n_phases: int | None = None
    first_gather_time: Rat | None = None
    # The trial's shares of the report's "stats" samples and of its
    # "extras", under the report's own names; cli.pool_shares pools each.
    stats: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    trace: Trace | None = None


def outcome_of(trial: int, trace: Trace, **fields) -> TrialOutcome:
    """A trial's outcome read off its two-robot trace, ``fields`` added.

    Each look commits one cycle, and in a gathered run both robots have
    decided, each in its last cycle, so the earlier of those looks is the
    gathering time, given in the scenario's unit.  It reads no segment."""
    a, b = trace.runs.values()
    gathered = trace.final_status == GATHERED
    first = None
    if gathered:
        first = min(a.gathered_at, b.gathered_at) / trace.unit
    return TrialOutcome(trial, gathered, a.looks + b.looks,
                        first_gather_time=first, trace=trace, **fields)


# ----------------------------------------------------------------------
# Two-robot runs: the trials of two_robot, ssync, thm4 and thm6


class RunSetup(NamedTuple):
    """One variant of a two-robot run.  ``policies`` maps robot id to policy;
    ``read``, if set, is a module-level function (a pickled scenario carries
    it) returning the ``outcome_of`` fields it reads off a trial's trace.
    The robots' starts, the adversary's times and ``budgets.max_time`` are
    in the run's unit: ``unit`` of them make one of the scenario's."""

    robots: list
    policies: dict
    adversary: object
    budgets: Budgets
    read: Callable | None = None
    unit: Rat = ONE


# The widest unit: many large coprime denominators would otherwise make the
# least common multiple, and every value scaled by it, arbitrarily wide.  A
# set-up whose unit would pass it keeps the scenario's.
MAX_UNIT_BITS = 64


def dyadic_unit(robots, adversary, budgets: Budgets) -> Rat:
    """K, the odd part of the least common multiple of the denominators of
    the starts, ``budgets.max_time`` and the adversary's time values: in
    units K times finer, each of them is dyadic.

    K is 1 for an adversary with no time values to scale (``AdaptiveThm6``)
    and when K would pass ``MAX_UNIT_BITS``.
    """
    times = adversary.time_values()
    if times is None:
        return ONE
    k = 1
    for x in chain((r.start for r in robots), (budgets.max_time,), times):
        d = x._denominator
        k = lcm(k, d >> ((d & -d).bit_length() - 1))
        if k.bit_length() > MAX_UNIT_BITS:
            return ONE
    return Rat(k)


def run_setup(robots, policies, adversary, budgets: Budgets, read=None) -> RunSetup:
    """A two-robot run variant, compiled into its unit (``dyadic_unit``)."""
    k = dyadic_unit(robots, adversary, budgets)
    if k == 1:
        return RunSetup(robots, policies, adversary, budgets, read)
    return RunSetup([RobotSpec(r.id, r.start * k, r.speed) for r in robots], policies,
                    adversary.in_unit(k), Budgets(budgets.max_total_looks, budgets.max_time * k),
                    read, k)


def run_trial(scn, setup: RunSetup, trial: int) -> Trace:
    """Trial ``trial``'s run of ``setup``, its adversary and lambdas drawn
    from seeds derived from the trial."""
    adversary = setup.adversary
    if adversary.seeded:
        adversary = adversary.for_trial(derive_seed(scn.master_seed, trial, "adv"))
    return run(setup.robots, setup.policies, adversary,
               spawn_rng(scn.master_seed, trial, "alg"), setup.budgets, setup.unit)


def two_robot_trial(scn, trial: int) -> TrialOutcome:
    # Variant v runs trials v * scn.trials up to (v + 1) * scn.trials - 1.
    setup = scn.setups[trial // scn.trials]
    trace = run_trial(scn, setup, trial)
    return outcome_of(trial, trace, **(setup.read(scn, trace) if setup.read else {}))


def read_attempts(scn, trace: Trace) -> dict:
    """Attempt and phase counts, and the shares of the completed ones."""
    attempts = segment_attempts(trace)
    phases = segment_phases(attempts)
    complete = [a.successful for a in attempts if a.complete]
    # Only terminal phases made of completed attempts are pooled.
    pooled = [ph for ph in phases if ph.terminal and all(a.complete for a in ph.attempts)]
    return {"n_attempts": len(attempts), "n_phases": len(phases),
            "stats": {"n_attempts": len(complete), "attempt_successes": sum(complete),
                      "phase_looks": tuple(ph.total_looks for ph in pooled),
                      "attempts_per_phase_hist": Counter(str(len(ph.attempts))
                                                         for ph in pooled)}}


# ----------------------------------------------------------------------
# SSYNC halving (deterministic lambda = 1/2, alternating single activation)


def ssync_schedule(activations: int, delta: Rat = ONE):
    """Explicit schedules realizing alternating single activation.

    Activation k happens at time 10 * delta * k and is performed by robot
    k mod 2; moves (each at most delta long) finish well inside the gap.
    """
    gap = 10 * delta
    waits = {0: [], 1: []}
    last_end = {0: ZERO, 1: ZERO}
    dist = delta
    for k in range(activations):
        rid = k % 2
        t_look = gap * k
        waits[rid].append((t_look - last_end[rid], ZERO))
        travel = dist / 2
        last_end[rid] = t_look + travel
        dist = dist / 2
    for rid in (0, 1):  # spare entries so cycle entry after the last move works
        waits[rid].extend([(gap * (activations + 4), ZERO)] * 2)
    return waits


def read_halving(scn, trace: Trace) -> dict:
    """ssync: whether there were ``activations`` looks, look k seeing the
    other robot at exactly delta / 2^k (so never at 0: delta > 0); delta
    is taken into the run's unit."""
    delta = scn.params["delta"] * trace.unit
    looks = [seg for _t, kind, _rid, seg in event_steps(trace) if kind == LOOK]
    ok = len(looks) == scn.params["activations"] and all(
        abs(seg.observed - seg.origin) == delta / 2 ** k for k, seg in enumerate(looks))
    return {"extras": {"halving_ok": ok}}


# ----------------------------------------------------------------------
# Catch scenarios: the chooser's move coincides with the mover mid-flight


def catch_setup(alpha: Rat, geometry_kind: str, lam):
    """Robots, policies and schedule for one catch scenario.

    Robot 0 is the pre-committed mover with speed ``alpha`` (relative to
    the choosing robot 1), at distance 1 from it.  ``lam`` is the chooser's
    drawn magnitude; the paper's value lands robot 1 exactly on robot 0
    mid-move.  In the same-direction variant the chooser flees, so the
    lambda-class value is the negated magnitude.
    """
    dormant = Rat(1000)
    if geometry_kind == OPPOSITE_DIRECTIONS:
        mover = RobotSpec(0, ONE, alpha)
        chooser = RobotSpec(1, ZERO, ONE)
        mover_script = [ONE, ONE, ZERO]
        chooser_script = [lam, ZERO, ZERO]
    elif geometry_kind == SAME_DIRECTION:
        mover = RobotSpec(0, -ONE, alpha)
        chooser = RobotSpec(1, ZERO, ONE)
        chase = 2 * alpha / (alpha - 1)
        mover_script = [chase, ONE, ZERO]
        chooser_script = [-lam, ZERO, ZERO]
    else:
        raise ValueError(f"unknown geometry {geometry_kind!r}")
    schedules = {
        0: [(ZERO, ZERO)] * 4,
        1: [(ZERO, ZERO), (ZERO, ZERO), (dormant, ZERO), (dormant, ZERO)],
    }
    specs = [mover, chooser]
    policies = {0: Oracle(mover_script), 1: Oracle(chooser_script)}
    return specs, policies, ObliviousExplicit(schedules)


def catch_trial(alpha: Rat, geometry_kind: str, lam=None) -> Trace:
    """One catch-scenario run; the oracle value when ``lam`` is None."""
    oracle = lam is None
    if oracle:
        lam = gather_lambda_oracle(alpha, geometry_kind)
    specs, policies, adversary = catch_setup(alpha, geometry_kind, lam)
    budgets = Budgets(6 if oracle else 4, BIG_TIME)
    return run(specs, policies, adversary, random.Random(0), budgets)


def thm3_trial(scn, trial: int) -> TrialOutcome:
    per = 1 + scn.params["random_draws"]
    alpha, geometry_kind = scn.params["configs"][trial // per]
    inner = trial % per
    oracle = inner == 0
    lam = None if oracle else u01(spawn_rng(scn.master_seed, trial, "lam"))
    trace = catch_trial(alpha, geometry_kind, lam)
    decides = sum(1 for run in trace.runs.values() if run.gathered_at is not None)
    return outcome_of(trial, trace, extras={"oracle_runs": int(oracle),
                                            "oracle_gathered": int(oracle and trace.gathered),
                                            "random_runs": int(not oracle),
                                            "random_decides": 0 if oracle else decides})


# ----------------------------------------------------------------------
# One uncontrolled robot (zero wait, zero delay, fixed lambda repetition)


def repeat_count_general(bound: Rat, delta: Rat, ratio: Rat) -> int:
    """Smallest k with delta * (1 - ratio**k) > bound (gap-shrink ratio)."""
    if not 0 < bound < delta:
        raise ValueError("requires 0 < bound < delta")
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    k = 1
    power = ratio  # ratio ** k, kept by multiplication so a Rat stays a Rat
    while delta * (1 - power) <= bound:
        k += 1
        power *= ratio
    return k


def read_k_histogram(scn, trace: Trace) -> dict:
    """thm4: the index of robot 0's first look that catches robot 1 mid-move."""
    moving = looks_mid_move(trace.runs[0].cycle_times(), trace.runs[1].cycle_times())
    k = next((k for k, mid in enumerate(moving) if mid), None)
    return {"stats": {"k_histogram": {} if k is None else {str(k): 1}}}


# ----------------------------------------------------------------------
# Adaptive impossibility runs


def read_midmove(scn, trace: Trace) -> dict:
    """thm6: whether every look after the first sees the other robot mid-move."""
    ok, violations = looks_see_midmove(trace)
    return {"extras": {"midmove_ok_all": ok, "total_violations": len(violations)}}


# ----------------------------------------------------------------------
# Lemma-1 equivalence: native 1D run against an independent 2D run


def _run_line_2d(starts, speeds, schedules, scripts, offsets, line, budgets):
    """Independent event-driven 2D simulator for two robots on a line.

    Each robot holds only its position, the kind and time of its next event
    (None once it has decided) and its moves, as (move_start, move_end,
    origin, dest): its cycle is its number of moves, and a MOVE_START's or
    MOVE_END's time is read off its last move.  Destinations are proposed
    off the line and projected back onto it, so the projection operation
    itself is exercised.  Returns the event stream [(time, kind, robot_id)]
    and ``query(robot_id, t)``, the one position rule, which the looks read
    too.
    """
    p1, p2 = line
    normal = (p2[1] - p1[1], p1[0] - p2[0])
    tie = {LOOK: 0, MOVE_END: 1, MOVE_START: 2}
    pos = dict(starts)
    due = {rid: (LOOK, schedules[rid][0][0]) for rid in (0, 1)}
    moves = {0: [], 1: []}
    events = []
    looks_done = 0

    def query(rid, t):
        # Inside the last move starting before t, else at rest where it ends.
        i = bisect_left(moves[rid], t, key=itemgetter(0))
        if not i:
            return starts[rid]
        ms, me, origin, dest = moves[rid][i - 1]
        if t >= me:
            return dest
        frac = (t - ms) * speeds[rid] / rat_sqrt(sqdist(dest, origin))
        return add(origin, scale(sub(dest, origin), frac))

    while True:
        pending = [(due[rid][1], tie[due[rid][0]], rid) for rid in (0, 1) if due[rid]]
        if not pending:
            break
        t, _rank, rid = min(pending)
        kind = due[rid][0]
        if t > budgets.max_time or (kind == LOOK and looks_done >= budgets.max_total_looks):
            break
        events.append((t, kind, rid))
        own = moves[rid]
        if kind == LOOK:
            looks_done += 1
            obs = query(1 - rid, t)
            if obs == pos[rid]:
                events.append((t, DECIDE_GATHERED, rid))
                due[rid] = None
                continue
            cycle = len(own)
            on_line = add(pos[rid], scale(sub(obs, pos[rid]), scripts[rid][cycle]))
            proposal = add(on_line, scale(normal, offsets[rid][cycle]))
            dest = geometry.project_point_to_line(proposal, p1, p2)
            ms = t + schedules[rid][cycle][1]
            own.append((ms, ms + rat_sqrt(sqdist(dest, pos[rid])) / speeds[rid], pos[rid], dest))
            due[rid] = (MOVE_START, ms)
        elif kind == MOVE_START:
            due[rid] = (MOVE_END, own[-1][1])
        else:
            pos[rid] = own[-1][3]
            due[rid] = (LOOK, t + schedules[rid][len(own)][0])

    return events, query


def lemma1_trial(scn, trial: int) -> TrialOutcome:
    """Compare a native 1D run with an independently simulated 2D run.

    The 2D frame has a rational unit direction, so on-line distances and
    travel durations stay rational and the comparison is exact.
    """
    cycles = scn.params["cycles"]
    rng = spawn_rng(scn.master_seed, trial, "lemma1")
    slope = Rat(rng.randrange(-6, 7), rng.randrange(1, 7))
    u = unit_from_slope(slope)
    base = (Rat(rng.randrange(-80, 81), 4), Rat(rng.randrange(-80, 81), 4))
    delta = Rat(rng.randrange(1, 33), 8)
    p1 = base
    p2 = add(base, scale(u, delta))
    speeds = {0: ONE, 1: Rat(rng.randrange(1, 4))}

    n = 2 * cycles + 2
    schedules = {rid: [(Rat(rng.randrange(0, 17), 8), Rat(rng.randrange(0, 9), 8))
                       for _ in range(n)] for rid in (0, 1)}

    def draw_lam():
        r = rng.randrange(5)
        if r == 0:
            return ONE
        if r == 1:
            return HALF
        if r == 2:
            return -Rat(rng.randrange(1, 5), 8)
        if r == 3:
            return Rat(rng.randrange(9, 16), 8)
        return u01(rng)

    scripts = {rid: [draw_lam() for _ in range(n)] for rid in (0, 1)}
    offsets = {rid: [Rat(rng.randrange(-8, 9), 4) for _ in range(n)]
               for rid in (0, 1)}
    budgets = Budgets(2 * cycles, BIG_TIME)

    # Native 1D: midpoint frame in true distance units, robot 0 at +delta/2.
    specs = [RobotSpec(0, delta / 2, speeds[0]), RobotSpec(1, -delta / 2, speeds[1])]
    policies = {rid: Oracle(scripts[rid]) for rid in (0, 1)}
    trace = run(specs, policies, ObliviousExplicit(schedules), random.Random(0), budgets)

    events2, query2 = _run_line_2d(
        {0: p1, 1: p2}, speeds, schedules, scripts, offsets, (p1, p2), budgets)

    ev1 = [(t, kind, rid) for t, kind, rid, _seg in event_steps(trace)]
    equal = ev1 == events2
    if equal:
        for t, _kind, _rid in ev1:
            d1 = abs(position_at(trace.runs[0], t) - position_at(trace.runs[1], t))
            d2 = rat_sqrt(sqdist(query2(0, t), query2(1, t)))
            if d1 != d2:
                equal = False
                break
    # Not outcome_of: "gathered" here means the two runs agree, and the row
    # has no gathering time.
    return TrialOutcome(trial=trial, gathered=equal,
                        total_looks=sum(trace.look_count.values()),
                        extras={"equal_trials": int(equal)},
                        trace=trace)


# ----------------------------------------------------------------------
# Multi-robot pipeline


# random_plane_config draws n distinct points of a 321 x 321 grid, but a
# trial's time is quadratic in n (0.4 s at n = 200 and 9 s at n = 1000 on
# one 2-core Xeon, Python 3.11), so n is capped far below the grid's size.
MAX_PLANE_ROBOTS = 1000


def random_plane_config(rng: random.Random, n: int) -> Configuration:
    pts = set()
    while len(pts) < n:
        pts.add((Rat(rng.randrange(-160, 161), 16),
                 Rat(rng.randrange(-160, 161), 16)))
    return Configuration([Entity(p) for p in sorted(pts)])


def engineered_tie_config() -> Configuration:
    """16 robots forming 8 exactly-tied farthest pairs (rational 16-gon)."""
    slopes = [Rat(0), Rat(1, 5), Rat(2, 5), Rat(2, 3),
              Rat(1), Rat(3, 2), Rat(12, 5), Rat(5)]
    pts = []
    for t in slopes:
        u = unit_from_slope(t)
        pts.append(u)
        pts.append(scale(u, -ONE))
    return Configuration([Entity(p) for p in pts])


def multirobot_trial(scn, trial: int) -> TrialOutcome:
    n = scn.params["n"]
    rng = spawn_rng(scn.master_seed, trial, "mr")
    cfg = random_plane_config(rng, n)
    red = reduce_to_line(cfg, rng, max_tie_rounds=scn.params["max_tie_rounds"])
    extras = {"tie_rounds_hist": {str(red.tie_rounds): 1}}
    if red.partial:
        return TrialOutcome(trial=trial, gathered=False, total_looks=0, extras=extras)
    cfg = red.config
    while len(cfg.entities) > 2:
        cfg = line_gather_step(cfg)
    looks = 0
    if len(cfg.entities) == 2:
        e1, e2 = cfg.entities
        # Two entities left: hand over to the continuous engine in the
        # scaled line frame (e1 at +1, e2 at -1; collocation is scale-free).
        tr = run_trial(scn, scn.setups[0], trial)
        looks = sum(tr.look_count.values())
        if not tr.gathered:
            return TrialOutcome(trial=trial, gathered=False, total_looks=looks, extras=extras)
        s = position_at(tr.runs[0], tr.horizon) / tr.unit
        # TAU_TRIPLE moves (lambda 0, 1/2, 1) never leave the segment
        # between the robots, so neither does the point where they meet.
        if not -1 <= s <= 1:
            raise RuntimeError(f"the last pair met at {s} in its line frame, "
                               "outside the segment [-1, 1] between its robots")
        m = scale(add(e1.pos, e2.pos), HALF)
        meet = add(m, scale(sub(e1.pos, m), s))
        cfg = merge_positions([(meet, e1.multiplicity + e2.multiplicity)])
    single = len(cfg.entities) == 1 and cfg.entities[0].multiplicity == n
    return TrialOutcome(trial=trial, gathered=single, total_looks=looks, extras=extras)


def engineered_tie_trial(master_seed, trial: int, max_rounds: int = 30) -> int | None:
    """Rounds until the 8-way tie resolves; None if max_rounds was not enough."""
    rng = spawn_rng(master_seed, trial, "tie")
    red = reduce_to_line(engineered_tie_config(), rng, max_tie_rounds=max_rounds)
    return None if red.partial else red.tie_rounds


# ----------------------------------------------------------------------
# Dispatch

TRIAL_RUNNERS = {
    "two_robot": two_robot_trial,
    "ssync": two_robot_trial,
    "thm3_oracle": thm3_trial,
    "thm4": two_robot_trial,
    "thm6": two_robot_trial,
    "lemma1": lemma1_trial,
    "multirobot": multirobot_trial,
}


def total_trials(scn) -> int:
    if scn.mode == "thm3_oracle":
        return len(scn.params["configs"]) * (1 + scn.params["random_draws"])
    return scn.trials * max(len(scn.setups), 1)  # lemma1 has no set-up


def run_one_trial(scn, trial: int) -> TrialOutcome:
    return TRIAL_RUNNERS[scn.mode](scn, trial)
