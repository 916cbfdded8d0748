"""Trace post-processing: maximum distances, attempt/phase segmentation,
and the error bars and bounds the Monte Carlo reports use.

An *attempt* pairs the later-moving robot's look with the other robot's
latest look at or before that move; it is *successful* when the maximum
distance afterwards is at most half the maximum distance before.  A
*phase* is a maximal run of attempts ending at the first successful one.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .engine import RobotRun, Trace, position_at
from .rational import ZERO, Rat


def looks_mid_move(run: RobotRun, other: RobotRun):
    """For each of ``run``'s looks in order, whether ``other`` is then
    strictly inside a move (move_start < t < move_end).

    A robot's looks come in time order and moves never overlap, so one
    forward pointer over the other robot's segments answers them all: the
    only candidate move is the latest one starting strictly before the look.
    Once the pointer reaches a move that still runs at t, no later move can
    start before t, so the look is mid-move with no further comparison: two
    in all when the pointer moved on by one.  A move seen to have ended by
    one look has ended by every later one, so it is not compared again.
    """
    others = other.segments
    last = len(others) - 1
    j = -1  # the latest of ``others`` whose move starts strictly before t
    running = False  # others[j]'s move ran at the latest look (false while j = -1)
    for seg in run.segments:
        t = seg.look_time
        while j < last and others[j + 1].move_start < t:
            j += 1
            running = t < others[j].move_end
            if running:
                break
        else:  # the pointer stopped without finding a move that runs at t
            if running:
                running = t < others[j].move_end
        yield running


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
    starts and ends up to the horizon.  Each robot's are listed once, in
    time order (``_move_breakpoints``), and one two-pointer sweep merges
    the two lists; equal times collapse to one entry.  At its own
    breakpoint a robot is at its move's origin (a start) or destination (an
    end).  Only the other robot, if it is in flight, is interpolated from
    its latest start: origin +- speed * (t - move_start), exact also at the
    move's end.  Positions are continuous in time, so which robot's
    breakpoint comes first at a shared time does not change the distance.
    """
    cached = getattr(trace, "_dist_profile", None)
    if cached is not None:
        return cached
    horizon = trace.horizon
    runs = [trace.runs[rid] for rid in trace.robot_ids]
    first, second = (_move_breakpoints(run, horizon) for run in runs)
    # Each robot's latest breakpoint, and its speed unless it is 1.
    latest = [(ZERO, run.spec.start, 0) for run in runs]
    speeds = [None if run.spec.speed == 1 else run.spec.speed for run in runs]

    def position(k: int, t: Rat) -> Rat:
        start, x, direction = latest[k]
        if not direction:
            return x
        step = t - start if speeds[k] is None else speeds[k] * (t - start)
        return x + step if direction > 0 else x - step

    ts = [ZERO]
    dist = [abs(latest[0][1] - latest[1][1])]
    i = j = 0
    while True:
        if i < len(first) and (j == len(second) or first[i][0] <= second[j][0]):
            k, point = 0, first[i]
            i += 1
        elif j < len(second):
            k, point = 1, second[j]
            j += 1
        else:
            break
        latest[k] = point
        t = point[0]
        if t != ts[-1]:
            ts.append(t)
            dist.append(abs(point[1] - position(1 - k, t)))
    if horizon != ts[-1]:
        ts.append(horizon)
        dist.append(abs(position(0, horizon) - position(1, horizon)))
    suffix = list(dist)
    for i in range(len(suffix) - 2, -1, -1):
        if suffix[i + 1] > suffix[i]:
            suffix[i] = suffix[i + 1]
    profile = (ts, dist, suffix)
    trace._dist_profile = profile
    return profile


def _move_breakpoints(run: RobotRun, horizon: Rat) -> list[tuple[Rat, Rat, int]]:
    """(time, position, direction) at the robot's move starts and ends up to
    ``horizon``, in time order.

    A start holds the move's origin and its direction, +1 or -1; an end holds
    the destination and 0, as the robot rests there.  Move ends increase
    along the segments, so the segments that end within the horizon are a
    prefix; of the rest only the first can start within it.
    """
    segs = run.segments
    n = len(segs)
    while n and segs[n - 1].move_end > horizon:
        n -= 1
    out = []
    for seg in segs[:n]:
        origin, dest = seg.origin, seg.destination
        out.append((seg.move_start, origin, 1 if dest > origin else -1))
        out.append((seg.move_end, dest, 0))
    if n < len(segs) and segs[n].move_start <= horizon:
        seg = segs[n]
        out.append((seg.move_start, seg.origin, 1 if seg.destination > seg.origin else -1))
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


def classify_success(before: Rat, after: Rat) -> bool:
    """Successful iff the max distance after is at most half the one before."""
    return 2 * after <= before


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
    # Move ends increase along a robot's segments, so the cycles that end
    # within the horizon are a prefix.
    in_horizon = {rid: bisect_right(segs[rid], trace.horizon, key=lambda s: s.move_end)
                  for rid in (a_id, b_id)}

    attempts: list[AttemptRecord] = []
    idx = {a_id: 0, b_id: 0}
    # Each robot's looks before the current window's end.  Windows tile
    # time and a robot's looks are in time order, so these only move
    # forward; the looks in a window are the growth of their sum.
    looks_before = {a_id: 0, b_id: 0}
    lo = 0
    t_begin = ZERO
    before = None  # max_distance_from(trace, t_begin): the previous attempt's after
    # Window ends are move ends within the horizon, so breakpoints of the
    # distance profile, and they only move forward: each is searched for
    # from the previous one's index p, and the suffix maximum there is the
    # distance after it.  The first attempt's max_distance_from builds the
    # profile.
    ts = suffix = None
    p = 0
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
        for rid, looks in looks_before.items():
            robot_segs = segs[rid]
            while looks < len(robot_segs) and robot_segs[looks].look_time < t_end:
                looks += 1
            looks_before[rid] = looks
        hi = sum(looks_before.values())
        if before is None:
            before = max_distance_from(trace, t_begin)
            ts, _dist, suffix = _distance_profile(trace)
        p = bisect_left(ts, t_end, p)
        after = suffix[p]
        idx = {later_id: idx[later_id] + 1, other_id: j + 1}
        complete = trace.gathered or all(in_horizon[rid] - idx[rid] >= 2 for rid in idx)
        attempts.append(AttemptRecord(
            look_pair=((later_id, later_seg.cycle, later_seg.look_time),
                       (other_id, other_seg.cycle, other_seg.look_time)),
            all_looks_in_window=hi - lo,
            window=(t_begin, t_end),
            max_dist_before=before,
            max_dist_after=after,
            successful=classify_success(before, after),
            complete=complete,
        ))
        t_begin, before, lo = t_end, after, hi
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
    """
    a, b = trace.robot_ids
    runs = trace.runs
    firsts = [run.segments[0].look_time for run in runs.values() if run.segments]
    if not firsts:
        return True, []
    first_time = min(firsts)
    violations = []
    for rid, other_id in ((a, b), (b, a)):
        segs = runs[rid].segments
        for seg, moving in zip(segs, looks_mid_move(runs[rid], runs[other_id])):
            t = seg.look_time
            if t == first_time:
                continue
            distance_ok = seg.observed != seg.origin
            if not (moving and distance_ok):
                violations.append((t, rid, moving, distance_ok))
    # A stable sort on (time, robot id) keeps a robot's same-instant
    # re-looks in cycle order.
    violations.sort(key=lambda v: (v[0], v[1]))
    decided = any(run.gathered_at is not None for run in runs.values())
    return (not violations and not decided), violations
