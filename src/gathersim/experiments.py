"""Runnable constructions of the theorem-style experiments.

Each scenario mode maps to one trial function here; the CLI fans trials
out and pools the outcomes.  The acceptance suite drives the same
functions directly.

A trial takes the compiled objects of its ``cli.Scenario`` and parses
nothing.  Policies and adversaries without state are shared by every
trial; seeded oblivious adversaries are copied with the trial's seed
(``for_trial``); an ``Oracle`` policy and the ``AdaptiveThm6`` adversary,
which change as a run goes on, are built afresh for each trial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import geometry
from .adversary import (
    AdaptiveThm6,
    ObliviousExplicit,
    ObliviousGenerated,
    PerRobot,
    TauBounded,
)
from .analysis import (
    looks_mid_move,
    looks_see_midmove,
    segment_attempts,
    segment_phases,
)
from .engine import (
    DECIDE_GATHERED,
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
    TAU_TRIPLE,
    THREE_CHOICE,
    Deterministic,
    Oracle,
    gather_lambda_oracle,
    OPPOSITE_DIRECTIONS,
    SAME_DIRECTION,
)
from .rational import HALF, ONE, ZERO, Rat, derive_seed, rat_sqrt, spawn_rng, u01

_BIG_TIME = Rat(10 ** 9)

# The uncontrolled robot of a thm4 run waits and computes for no time.
_THM4_FREE = ObliviousGenerated("constant", (ZERO, ZERO), 0)


@dataclass
class TrialOutcome:
    """Per-trial result row plus pooled statistic contributions."""

    trial: int
    gathered: bool
    total_looks: int
    n_attempts: int | None = None
    n_phases: int | None = None
    first_gather_time: Rat | None = None
    attempt_outcomes: tuple = ()
    phase_looks: tuple = ()
    attempts_per_phase: tuple = ()
    k_value: int | None = None
    # The trial's share of the report's "extras", under the report's own
    # names; cli.pool_extras pools them.
    extras: dict = field(default_factory=dict)
    trace: Trace | None = None


def outcome_of(trial: int, trace: Trace, **fields) -> TrialOutcome:
    """A trial's outcome read off its trace, ``fields`` added; every robot has
    decided in a gathered run, so the first decision is its gathering time."""
    return TrialOutcome(trial=trial, gathered=trace.gathered,
                        total_looks=sum(trace.look_count.values()),
                        first_gather_time=(min(run.gathered_at for run in trace.runs.values())
                                           if trace.gathered else None),
                        trace=trace, **fields)


# ----------------------------------------------------------------------
# Generic two-robot scenario trials


def _trial_policy(policy):
    """An Oracle's cursor advances as it samples, so each run needs its own."""
    return Oracle(policy.script) if isinstance(policy, Oracle) else policy


def two_robot_trial(scn, trial: int) -> TrialOutcome:
    # Without variants there is one adversary and trial < scn.trials.
    adversary = scn.adversaries[trial // scn.trials].for_trial(
        derive_seed(scn.master_seed, trial, "adv"))
    policies = {rid: _trial_policy(p) for rid, p in scn.robot_policies.items()}
    trace = run(scn.robots, policies, adversary,
                spawn_rng(scn.master_seed, trial, "alg"), scn.budgets)
    out = outcome_of(trial, trace)
    if scn.segment_attempts:
        attempts = segment_attempts(trace)
        phases = segment_phases(attempts)
        out.n_attempts, out.n_phases = len(attempts), len(phases)
        out.attempt_outcomes = tuple(a.successful for a in attempts if a.complete)
        # Only terminal phases made of completed attempts are pooled.
        pooled = [ph for ph in phases
                  if ph.terminal and all(a.complete for a in ph.attempts)]
        out.phase_looks = tuple(ph.total_looks for ph in pooled)
        out.attempts_per_phase = tuple(len(ph.attempts) for ph in pooled)
    return out


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


def ssync_trial(scn, trial: int) -> TrialOutcome:
    activations = scn.params["activations"]
    delta = scn.params["delta"]
    specs = [RobotSpec(0, delta, ONE), RobotSpec(1, ZERO, ONE)]
    adversary = ObliviousExplicit(ssync_schedule(activations, delta))
    policies = {0: Deterministic(HALF), 1: Deterministic(HALF)}
    trace = run(specs, policies, adversary, spawn_rng(scn.master_seed, trial, "alg"),
                Budgets(activations, _BIG_TIME))
    looks = [seg for _t, kind, _rid, seg in event_steps(trace) if kind == LOOK]
    ok = len(looks) == activations
    for k, seg in enumerate(looks):
        seen = abs(seg.observed - seg.origin)
        if seen != delta / (2 ** k) or seen == 0:
            ok = False
            break
    return outcome_of(trial, trace, extras={"halving_ok": ok})


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
    budgets = Budgets(6 if oracle else 4, _BIG_TIME)
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


def halving_count(trace: Trace, mover: int, other: int) -> int | None:
    """Index of the mover's first look that catches the other mid-move."""
    for idx, moving in enumerate(looks_mid_move(trace.runs[mover], trace.runs[other])):
        if moving:
            return idx
    return None


def thm4_trial(scn, trial: int) -> TrialOutcome:
    alpha = scn.params["alphas"][trial // scn.trials]
    delta = scn.params["delta"]
    adversary = PerRobot({
        0: _THM4_FREE,
        1: TauBounded(scn.params["tau"], derive_seed(scn.master_seed, trial, "adv"),
                      scn.params["fixed_sum"]),
    })
    specs = [RobotSpec(0, ZERO, ONE), RobotSpec(1, delta, alpha)]
    policies = {0: Deterministic(1 / (alpha + 1)), 1: TAU_TRIPLE}
    trace = run(specs, policies, adversary,
                spawn_rng(scn.master_seed, trial, "alg"), scn.budgets)
    return outcome_of(trial, trace, k_value=halving_count(trace, 0, 1))


# ----------------------------------------------------------------------
# Adaptive impossibility runs


def thm6_trial(scn, trial: int) -> TrialOutcome:
    delta = scn.params["delta"]
    specs = [RobotSpec(0, delta, ONE), RobotSpec(1, ZERO, ONE)]
    adversary = AdaptiveThm6({0: scn.params["w_first"], 1: scn.params["w_second"]})
    policies = {0: THREE_CHOICE, 1: THREE_CHOICE}
    trace = run(specs, policies, adversary,
                spawn_rng(scn.master_seed, trial, "alg"), scn.budgets)
    ok, violations = looks_see_midmove(trace)
    return outcome_of(trial, trace,
                      extras={"midmove_ok_all": ok, "total_violations": len(violations)})


# ----------------------------------------------------------------------
# Lemma-1 equivalence: native 1D run against an independent 2D run


def _run_line_2d(starts, speeds, schedules, scripts, offsets, line, budgets):
    """Independent event-driven 2D simulator for two robots on a line.

    Destinations are proposed off the line and projected back onto it, so
    the projection operation itself is exercised.  Returns the event
    stream [(time, kind, robot_id)] and a position query function.
    """
    p1, p2 = line
    tie = {LOOK: 0, MOVE_END: 1, MOVE_START: 2}
    st = {}
    for rid in (0, 1):
        st[rid] = {
            "pos": starts[rid], "speed": speeds[rid], "phase": "waiting",
            "cycle": 0, "look": schedules[rid][0][0], "ms": ZERO, "me": ZERO,
            "origin": starts[rid], "dest": starts[rid], "cursor": 0,
            "segments": [],
        }
    events = []
    looks_done = 0
    status = None

    def pos_of(s, t):
        if s["phase"] == "moving":
            if t <= s["ms"]:
                return s["origin"]
            if t >= s["me"]:
                return s["dest"]
            span = rat_sqrt(sqdist(s["dest"], s["origin"]))
            frac = (t - s["ms"]) * s["speed"] / span
            return add(s["origin"], scale(sub(s["dest"], s["origin"]), frac))
        return s["pos"]

    while True:
        pending = []
        for rid, s in st.items():
            if s["phase"] == "done":
                continue
            if s["phase"] == "waiting":
                pending.append(((s["look"], LOOK), rid))
            elif s["phase"] == "computing":
                pending.append(((s["ms"], MOVE_START), rid))
            else:
                pending.append(((s["me"], MOVE_END), rid))
        if not pending:
            status = "GATHERED"
            break
        ((t, kind), rid) = min(pending, key=lambda p: (p[0][0], tie[p[0][1]], p[1]))
        if t > budgets.max_time:
            status = "TIME"
            break
        s = st[rid]
        o = st[1 - rid]
        if kind == LOOK:
            if looks_done >= budgets.max_total_looks:
                status = "LOOKS"
                break
            looks_done += 1
            events.append((t, LOOK, rid))
            obs = pos_of(o, t)
            if obs == s["pos"]:
                events.append((t, DECIDE_GATHERED, rid))
                s["segments"].append((t, t, s["pos"], s["pos"]))
                s["phase"] = "done"
                continue
            lam = scripts[rid][s["cursor"]]
            off = offsets[rid][s["cursor"]]
            s["cursor"] += 1
            on_line = add(s["pos"], scale(sub(obs, s["pos"]), lam))
            normal = (p2[1] - p1[1], p1[0] - p2[0])
            proposal = add(on_line, scale(normal, off))
            dest = geometry.project_point_to_line(proposal, p1, p2)
            compute = schedules[rid][s["cycle"]][1]
            s["dest"] = dest
            s["origin"] = s["pos"]
            s["ms"] = t + compute
            s["me"] = s["ms"] + rat_sqrt(sqdist(dest, s["pos"])) / speeds[rid]
            s["segments"].append((s["ms"], s["me"], s["origin"], dest))
            s["phase"] = "computing"
        elif kind == MOVE_START:
            events.append((t, MOVE_START, rid))
            s["phase"] = "moving"
        else:
            events.append((t, MOVE_END, rid))
            s["pos"] = s["dest"]
            s["cycle"] += 1
            s["look"] = t + schedules[rid][s["cycle"]][0]
            s["phase"] = "waiting"

    def query(rid, t):
        pos = starts[rid]
        for ms, me, origin, dest in st[rid]["segments"]:
            if t <= ms:
                return pos  # resting; pos equals this segment's origin
            if t < me:
                span = rat_sqrt(sqdist(dest, origin))
                frac = (t - ms) * speeds[rid] / span
                return add(origin, scale(sub(dest, origin), frac))
            pos = dest
        return pos

    return events, query, status


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
    budgets = Budgets(2 * cycles, _BIG_TIME)

    # Native 1D: midpoint frame in true distance units, robot 0 at +delta/2.
    specs = [RobotSpec(0, delta / 2, speeds[0]), RobotSpec(1, -delta / 2, speeds[1])]
    policies = {0: Oracle(list(scripts[0])), 1: Oracle(list(scripts[1]))}
    trace = run(specs, policies, ObliviousExplicit(schedules), random.Random(0), budgets)

    events2, query2, _status = _run_line_2d(
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


# random_plane_config draws n distinct points of a 321 x 321 grid.
MAX_PLANE_ROBOTS = 321 ** 2


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
        specs = [RobotSpec(0, ONE, ONE), RobotSpec(1, -ONE, ONE)]
        adversary = TauBounded(Rat(1, 5), derive_seed(scn.master_seed, trial, "adv"))
        policies = {0: TAU_TRIPLE, 1: TAU_TRIPLE}
        tr = run(specs, policies, adversary,
                 spawn_rng(scn.master_seed, trial, "alg"), scn.budgets)
        looks = sum(tr.look_count.values())
        if not tr.gathered:
            return TrialOutcome(trial=trial, gathered=False, total_looks=looks, extras=extras)
        s = position_at(tr.runs[0], tr.horizon)
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
    "ssync": ssync_trial,
    "thm3_oracle": thm3_trial,
    "thm4": thm4_trial,
    "thm6": thm6_trial,
    "lemma1": lemma1_trial,
    "multirobot": multirobot_trial,
}


def total_trials(scn) -> int:
    if scn.mode == "thm3_oracle":
        return len(scn.params["configs"]) * (1 + scn.params["random_draws"])
    if scn.mode == "thm4":
        return scn.trials * len(scn.params["alphas"])
    if scn.schedule_variants:
        return scn.trials * len(scn.schedule_variants)
    return scn.trials


def run_one_trial(scn, trial: int) -> TrialOutcome:
    return TRIAL_RUNNERS[scn.mode](scn, trial)
