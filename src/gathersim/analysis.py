"""Trace post-processing: maximum distances, attempt/phase segmentation,
and the error bars and bounds the Monte Carlo reports use.

An *attempt* pairs the later-moving robot's look with the other robot's
latest look at or before that move; it is *successful* when the maximum
distance afterwards is at most half the maximum distance before.  A
*phase* is a maximal run of attempts ending at the first successful one.
"""

from __future__ import annotations

import heapq
import math
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .engine import RobotRun, Trace, position_at
from .geometry import move_position
from .rational import ZERO, Rat

_move_start = attrgetter("move_start")


def is_mid_move(run: RobotRun, t: Rat) -> bool:
    """True when the robot is strictly inside a move at time t.

    Moves never overlap, so the only candidate is the latest segment whose
    move starts strictly before t.
    """
    i = bisect_left(run.segments, t, key=_move_start) - 1
    if i < 0:
        return False
    seg = run.segments[i]
    return seg.move_start < t < seg.move_end


@dataclass
class AttemptRecord:
    # (robot_id, cycle, look_time) of the later mover's look, then of the
    # other robot's latest look at or before the later move.
    look_pair: tuple[tuple[int, int, Rat], tuple[int, int, Rat]]
    all_looks_in_window: int
    window: tuple[Rat, Rat]
    max_dist_before: Rat
    max_dist_after: Rat
    successful: bool
    complete: bool


@dataclass
class PhaseRecord:
    attempts: list[AttemptRecord]
    total_looks: int
    terminal: bool

    def __post_init__(self):
        if not self.attempts:
            raise ValueError("a phase holds at least one attempt")


def _distance_profile(trace: Trace):
    """Breakpoint times, exact distances there, and suffix maxima.

    Positions are piecewise linear, so the inter-robot distance attains its
    supremum over any suffix at a move start/end or at the query time (the
    kinks of |x1-x2| away from those points are zero crossings, which are
    minima).  The breakpoints are 0, the horizon and each robot's move
    starts and ends up to the horizon; a robot's own are already in time
    order, so the two lists are merged, and each robot's positions come
    from one forward sweep over its segments.
    """
    cached = getattr(trace, "_dist_profile", None)
    if cached is not None:
        return cached
    horizon = trace.horizon
    runs = [trace.runs[rid] for rid in trace.robot_ids]
    ts = [ZERO]
    for t in heapq.merge(*(_move_times(run, horizon) for run in runs)):
        if t != ts[-1]:
            ts.append(t)
    if horizon != ts[-1]:
        ts.append(horizon)
    a, b = (_positions(run, ts) for run in runs)
    dist = [abs(x - y) for x, y in zip(a, b)]
    suffix = list(dist)
    for i in range(len(suffix) - 2, -1, -1):
        if suffix[i + 1] > suffix[i]:
            suffix[i] = suffix[i + 1]
    profile = (ts, dist, suffix)
    trace._dist_profile = profile
    return profile


def _move_times(run: RobotRun, horizon: Rat):
    """The robot's move starts and ends up to ``horizon``, in time order."""
    for seg in run.segments:
        if seg.move_start > horizon:
            return
        yield seg.move_start
        if seg.move_end > horizon:
            return
        yield seg.move_end


def _positions(run: RobotRun, ts: list[Rat]) -> list[Rat]:
    """``position_at(run, t)`` for each t of the ascending ``ts``.

    The segment for t is the last one whose move starts at or before t, as
    in ``position_at``; it only moves forward as t grows.
    """
    segs = run.segments
    n = len(segs)
    i = -1
    speed = run.spec.speed
    out = []
    for t in ts:
        while i + 1 < n and segs[i + 1].move_start <= t:
            i += 1
            seg = segs[i]
        out.append(run.spec.start if i < 0 else move_position(
            seg.origin, seg.destination, speed, seg.move_start, seg.move_end, t))
    return out


def max_distance_from(trace: Trace, t: Rat) -> Rat:
    """Supremum of the inter-robot distance over [t, horizon], exactly."""
    if t < 0 or t > trace.horizon:
        raise ValueError(f"t={t} outside trace horizon [0, {trace.horizon}]")
    ts, _dist, suffix = _distance_profile(trace)
    i = bisect_left(ts, t)
    if i < len(ts) and ts[i] == t:  # a breakpoint: its distance is in the suffix
        return suffix[i]
    a, b = trace.robot_ids
    here = abs(position_at(trace.runs[a], t) - position_at(trace.runs[b], t))
    if i < len(ts) and suffix[i] > here:
        return suffix[i]
    return here


def classify_success(attempt: AttemptRecord) -> bool:
    """Successful iff the max distance after is at most half the one before."""
    return 2 * attempt.max_dist_after <= attempt.max_dist_before


def segment_attempts(trace: Trace) -> list[AttemptRecord]:
    """Split a two-robot trace into attempts.

    "The robot which has moved later" is the one whose move starts later:
    the instant its lambda choice becomes binding.  A trailing stretch
    without a full pair of move cycles yields no attempt.  An attempt is
    complete when the run gathered or both robots have two further cycles
    that end within the horizon.
    """
    a_id, b_id = trace.robot_ids
    segs = {rid: trace.runs[rid].segments for rid in (a_id, b_id)}
    look_times = sorted(seg.look_time for rid in (a_id, b_id) for seg in segs[rid])
    # Move ends increase along a robot's segments, so the cycles that end
    # within the horizon are a prefix.
    in_horizon = {rid: bisect_right(segs[rid], trace.horizon, key=lambda s: s.move_end)
                  for rid in (a_id, b_id)}

    attempts: list[AttemptRecord] = []
    idx = {a_id: 0, b_id: 0}
    t_begin = ZERO
    before = None  # max_distance_from(trace, t_begin): the previous attempt's after
    while True:
        sa = segs[a_id][idx[a_id]] if idx[a_id] < len(segs[a_id]) else None
        sb = segs[b_id][idx[b_id]] if idx[b_id] < len(segs[b_id]) else None
        if sa is None or sb is None or sa.lam is None or sb.lam is None:
            break
        if sa.move_start > sb.move_start:
            later_id, later_seg = a_id, sa
            other_id = b_id
        else:
            later_id, later_seg = b_id, sb
            other_id = a_id
        t = later_seg.move_start
        other_segs = segs[other_id]
        j = idx[other_id]
        while (j + 1 < len(other_segs) and other_segs[j + 1].lam is not None
               and other_segs[j + 1].look_time <= t):
            j += 1
        other_seg = other_segs[j]

        t_end = max(later_seg.move_end, other_seg.move_end)
        if t_end > trace.horizon:
            break  # the window is not fully simulated
        lo = bisect_left(look_times, t_begin)
        hi = bisect_left(look_times, t_end)
        if before is None:
            before = max_distance_from(trace, t_begin)
        after = max_distance_from(trace, t_end)
        idx = {later_id: idx[later_id] + 1, other_id: j + 1}
        complete = trace.gathered or all(in_horizon[rid] - idx[rid] >= 2 for rid in idx)
        attempts.append(AttemptRecord(
            look_pair=((later_id, later_seg.cycle, later_seg.look_time),
                       (other_id, other_seg.cycle, other_seg.look_time)),
            all_looks_in_window=hi - lo,
            window=(t_begin, t_end),
            max_dist_before=before,
            max_dist_after=after,
            successful=2 * after <= before,
            complete=complete,
        ))
        t_begin, before = t_end, after
    return attempts


def segment_phases(attempts: list[AttemptRecord]) -> list[PhaseRecord]:
    """Greedy split after each successful attempt; a trailing run of
    unsuccessful attempts becomes a non-terminal phase."""
    phases: list[PhaseRecord] = []
    current: list[AttemptRecord] = []
    for att in attempts:
        current.append(att)
        if att.successful:
            phases.append(PhaseRecord(
                attempts=current,
                total_looks=sum(a.all_looks_in_window for a in current),
                terminal=True,
            ))
            current = []
    if current:
        phases.append(PhaseRecord(
            attempts=current,
            total_looks=sum(a.all_looks_in_window for a in current),
            terminal=False,
        ))
    return phases


def binomial_halfwidth_3sigma(p_hat: float, n: int) -> float:
    """3 * sqrt(p(1-p)/n) for an empirical fraction."""
    if n <= 0:
        raise ValueError("need at least one sample")
    return 3.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def mean_halfwidth_3sigma(samples) -> float:
    """3 * s / sqrt(n) for a sample mean (0 when n < 2)."""
    n = len(samples)
    if n < 2:
        return 0.0
    return 3.0 * statistics.stdev(samples) / math.sqrt(n)


def theorem5_bound(delta: Rat, tau: Rat) -> float:
    """Expected-look bound 18 * (log2(delta/tau) + 1); 18 when delta < tau."""
    if delta <= 0 or tau <= 0:
        raise ValueError("delta and tau must be positive")
    if delta < tau:
        return 18.0
    return 18.0 * (math.log2(delta / tau) + 1.0)


def geometric_repeat_count(gamma0: Rat, delta: Rat) -> int:
    """Smallest k with delta * (1 - 2**-k) > gamma0, for 0 < gamma0 < delta."""
    if not 0 < gamma0 < delta:
        raise ValueError("requires 0 < gamma0 < delta")
    k = 1
    while delta * (1 - Rat(1, 2 ** k)) <= gamma0:
        k += 1
    return k


def looks_see_midmove(trace: Trace) -> tuple[bool, list]:
    """Check the adaptive-adversary invariant on a trace.

    Every look strictly after the chronologically first look instant must
    observe the other robot strictly inside a move (move_start < t <
    move_end) at a positive distance.  Returns (ok, violations), the
    violations in time order.

    A robot's looks come in time order, so one forward pointer over the
    other robot's segments answers all of them: the only candidate move
    is the latest one starting strictly before the look, as in
    ``is_mid_move``.
    """
    a, b = trace.robot_ids
    runs = trace.runs
    firsts = [run.segments[0].look_time for run in runs.values() if run.segments]
    if not firsts:
        return True, []
    first_time = min(firsts)
    violations = []
    for rid, other_id in ((a, b), (b, a)):
        others = runs[other_id].segments
        last = len(others) - 1
        j = -1  # the latest of ``others`` whose move starts strictly before t
        for seg in runs[rid].segments:
            t = seg.look_time
            if t == first_time:
                continue
            while j < last and others[j + 1].move_start < t:
                j += 1
            moving = j >= 0 and t < others[j].move_end
            distance_ok = seg.observed != seg.origin
            if not (moving and distance_ok):
                violations.append((t, rid, moving, distance_ok))
    # A stable sort on (time, robot id) keeps a robot's same-instant
    # re-looks in cycle order.
    violations.sort(key=lambda v: (v[0], v[1]))
    decided = any(run.gathered_at is not None for run in runs.values())
    return (not violations and not decided), violations
