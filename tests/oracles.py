"""Independent reference implementations used only as test oracles.

These deliberately avoid the library's own data paths: the segmenter
rebuilds cycles from the raw event stream, the projection oracle
minimizes squared distance over a refined rational grid, the event
reference records every event as it happens, in an event loop of its own,
instead of deriving the log from cycle segments as the engine does, the
trace text is built as a dict tree and encoded by ``json.dumps``, the
distance profile calls ``position_at`` at each sorted breakpoint, the
attempt reference recomputes each window's distances and rescans each
robot's remaining segments for every attempt, the mid-move check bisects
the other robot's segments afresh for every look, and the adaptive
decision reads ``Rat`` fields and places the move literally with
``move_position`` to test whether it lands on the other robot.
``segment_delays`` reads each cycle's (W, C) off its segment's times, as a
run does not record them.
"""

import json
import random
from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter

from gathersim.adversary import AdaptiveThm6, InfeasibleDelayError
from gathersim.analysis import AttemptRecord, max_distance_from
from gathersim.engine import LOOK, MOVE_END, MOVE_START, position_at
from gathersim.geometry import add, move_position, scale, sqdist, sub
from gathersim.policies import destination
from gathersim.rational import format_rat


def brute_max_distance(trace, t):
    """Max inter-robot distance over [t, horizon] by direct enumeration."""
    a, b = trace.robot_ids
    times = {t, trace.horizon}
    times.update(e.time for e in trace.events if e.time >= t)
    return max(abs(position_at(trace.runs[a], x) - position_at(trace.runs[b], x))
               for x in times)


def reference_distance_profile(trace):
    """(ts, dist, suffix) of ``analysis._distance_profile``, point by point:
    every move start and end up to the horizon, 0 and the horizon, sorted,
    with the exact distance at each and the suffix maxima of those."""
    a, b = trace.robot_ids
    times = {Fraction(0), trace.horizon}
    for rid in (a, b):
        for seg in trace.runs[rid].segments:
            for t in (seg.move_start, seg.move_end):
                if t <= trace.horizon:
                    times.add(t)
    ts = sorted(times)
    dist = [abs(position_at(trace.runs[a], t) - position_at(trace.runs[b], t)) for t in ts]
    suffix = [max(dist[i:]) for i in range(len(dist))]
    return ts, dist, suffix


def reference_trace_text(trace):
    """A trace file's text as a dict tree encoded by ``json.dumps``."""
    def enc(v):
        if isinstance(v, Fraction):
            return format_rat(v)
        if isinstance(v, tuple):
            return [enc(x) for x in v]
        return v

    tree = {
        "final_status": trace.final_status,
        "look_count": {str(k): v for k, v in sorted(trace.look_count.items())},
        "horizon": format_rat(trace.horizon),
        "events": [
            {"time": format_rat(e.time), "robot": e.robot_id, "kind": e.kind,
             "payload": {k: enc(v) for k, v in sorted(e.payload.items())}}
            for e in trace.events
        ],
    }
    return json.dumps(tree, sort_keys=True, indent=1)


def brute_force_attempts(trace):
    """Attempt segmentation reconstructed purely from the event stream.

    The later mover is the robot whose move starts later.  A cycle whose
    look did not decide gathering is a row even when its move starts or
    ends past the horizon (None there): its look still pairs with the
    other robot's later move, and a window that needs such a move is not
    fully simulated.
    """
    cycles = {rid: {} for rid in trace.robot_ids}
    for e in trace.events:
        c = e.payload.get("cycle")
        rec = cycles[e.robot_id].setdefault(c, {})
        if e.kind == "LOOK":
            rec["look"] = e.time
        elif e.kind == "MOVE_START":
            rec["move_start"] = e.time
        elif e.kind == "MOVE_END":
            rec["move_end"] = e.time
        elif e.kind == "DECIDE_GATHERED":
            rec["decided"] = True

    table = {}
    for rid, recs in cycles.items():
        rows = []
        for c in sorted(recs):
            r = recs[c]
            if "look" in r and "decided" not in r:
                rows.append((c, r["look"], r.get("move_start"), r.get("move_end")))
        table[rid] = rows

    a, b = trace.robot_ids
    look_times = sorted(e.time for e in trace.events if e.kind == "LOOK")
    key = 2  # the move start of a (cycle, look, move_start, move_end) row
    out = []
    ptr = {a: 0, b: 0}
    t_begin = Fraction(0)
    while ptr[a] < len(table[a]) and ptr[b] < len(table[b]):
        ra = table[a][ptr[a]]
        rb = table[b][ptr[b]]
        if ra[key] is None or rb[key] is None:
            break  # the later move starts past the horizon
        if ra[key] > rb[key]:
            later_rid, later = a, ra
            other_rid = b
        else:
            later_rid, later = b, rb
            other_rid = a
        t = later[key]
        cands = [(i, row) for i, row in enumerate(table[other_rid])
                 if i >= ptr[other_rid] and row[1] <= t]
        oi, other = cands[-1]
        if later[3] is None or other[3] is None:
            break  # the window is not fully simulated
        t_end = max(later[3], other[3])
        before = brute_max_distance(trace, t_begin)
        after = brute_max_distance(trace, t_end)
        out.append({
            "later": (later_rid, later[0], later[1]),
            "other": (other_rid, other[0], other[1]),
            "window": (t_begin, t_end),
            "looks": sum(1 for x in look_times if t_begin <= x < t_end),
            "before": before,
            "after": after,
            "successful": 2 * after <= before,
        })
        ptr[later_rid] += 1
        ptr[other_rid] = oi + 1
        t_begin = t_end
    return out


def reference_segment_attempts(trace):
    """``analysis.segment_attempts`` as a direct scan: both distances of
    every window are looked up afresh, and an attempt is complete when the
    run gathered or each robot's segments after the attempt hold two that
    end within the horizon."""
    a_id, b_id = trace.robot_ids
    segs = {rid: trace.runs[rid].segments for rid in (a_id, b_id)}
    look_times = sorted(seg.look_time for rid in (a_id, b_id) for seg in segs[rid])

    attempts = []
    idx = {a_id: 0, b_id: 0}
    t_begin = Fraction(0)
    while True:
        sa = segs[a_id][idx[a_id]] if idx[a_id] < len(segs[a_id]) else None
        sb = segs[b_id][idx[b_id]] if idx[b_id] < len(segs[b_id]) else None
        if sa is None or sb is None or sa.lam is None or sb.lam is None:
            break
        if sa.move_start > sb.move_start:
            later_id, later_seg, other_id = a_id, sa, b_id
        else:
            later_id, later_seg, other_id = b_id, sb, a_id
        t = later_seg.move_start
        other_segs = segs[other_id]
        j = idx[other_id]
        while (j + 1 < len(other_segs) and other_segs[j + 1].lam is not None
               and other_segs[j + 1].look_time <= t):
            j += 1
        other_seg = other_segs[j]

        t_end = max(later_seg.move_end, other_seg.move_end)
        if t_end > trace.horizon:
            break
        before = max_distance_from(trace, t_begin)
        after = max_distance_from(trace, t_end)
        complete = trace.gathered or all(
            len([s for s in segs[rid][start:] if s.move_end <= trace.horizon]) >= 2
            for rid, start in ((later_id, idx[later_id] + 1), (other_id, j + 1)))
        attempts.append(AttemptRecord(
            look_pair=((later_id, later_seg.cycle, later_seg.look_time),
                       (other_id, other_seg.cycle, other_seg.look_time)),
            all_looks_in_window=bisect_left(look_times, t_end) - bisect_left(look_times, t_begin),
            window=(t_begin, t_end),
            max_dist_before=before,
            max_dist_after=after,
            successful=2 * after <= before,
            complete=complete,
        ))
        idx[later_id] += 1
        idx[other_id] = j + 1
        t_begin = t_end
    return attempts


def segment_delays(segments):
    """Each segment's (W, C), read off its times: C is ``move_start -
    look_time`` and W is ``look_time`` minus the previous segment's
    ``move_end`` (minus 0 in cycle 0)."""
    ends = [0] + [seg.move_end for seg in segments[:-1]]
    return [(seg.look_time - end, seg.move_start - seg.look_time)
            for seg, end in zip(segments, ends)]


def is_mid_move(run, t):
    """True when the robot is strictly inside a move at time t.

    Moves never overlap, so the only candidate is the latest segment whose
    move starts strictly before t, found by bisection.
    """
    i = bisect_left(run.segments, t, key=attrgetter("move_start")) - 1
    if i < 0:
        return False
    seg = run.segments[i]
    return seg.move_start < t < seg.move_end


def reference_looks_see_midmove(trace):
    """``analysis.looks_see_midmove`` with one ``is_mid_move`` bisect per look."""
    a, b = trace.robot_ids
    other = {a: trace.runs[b], b: trace.runs[a]}
    looks = [(seg, rid) for rid in (a, b) for seg in trace.runs[rid].segments]
    if not looks:
        return True, []
    first_time = min(seg.look_time for seg, _ in looks)
    violations = []
    for seg, rid in looks:
        t = seg.look_time
        if t == first_time:
            continue
        moving = is_mid_move(other[rid], t)
        distance_ok = seg.observed != seg.origin
        if not (moving and distance_ok):
            violations.append((t, rid, moving, distance_ok))
    violations.sort(key=lambda v: (v[0], v[1]))
    decided = any(run.gathered_at is not None for run in trace.runs.values())
    return (not violations and not decided), violations


def grid_project_coordinate(q, p1, p2, span=64):
    """Scaled line coordinate of q's projection, found by a refined grid
    search minimizing the squared distance to the line point."""
    m = scale(add(p1, p2), Fraction(1, 2))
    axis = sub(p1, m)

    def eval_at(s):
        return sqdist(q, add(m, scale(axis, s)))

    lo, hi, step = Fraction(-span), Fraction(span), Fraction(1)
    best = lo
    for _ in range(3):  # coarse pass plus two refinements
        s = lo
        best, best_val = s, eval_at(s)
        while s <= hi:
            v = eval_at(s)
            if v < best_val:
                best, best_val = s, v
            s += step
        lo, hi, step = best - step, best + step, step / 16
    return best


def reference_adaptive_decide(pair, dest):
    """``AdaptiveThm6``'s C and next W with the move placed literally: the
    delay is the midpoint of the feasible interval unless ``move_position``
    puts the robot exactly on the other one at the other's next look, and
    then the quarter point.  ``pair`` holds the two robots' ``Rat`` fields;
    the other robot's next look is its look time while it waits, or its
    move end plus a wait of 1 (0 after a zero-length move) while it moves.
    Travel is recomputed from ``dest``."""
    me, other = pair
    if dest == me.pos:
        return (Fraction(0), Fraction(0))
    if other.pending == LOOK:
        other_look, other_pos_at_look = other.next_time, other.pos
    elif other.pending == MOVE_END:
        other_look = other.next_time + (1 if other.travel else 0)
        other_pos_at_look = other.dest
    else:
        raise InfeasibleDelayError(f"other robot's next event is {other.pending} at a look")
    t = me.next_time
    travel = abs(dest - me.pos) / me.spec.speed
    hi = other_look - t
    lo = max(hi - travel, Fraction(0))
    if not lo < hi:
        raise InfeasibleDelayError(f"empty feasible delay interval ({lo}, {hi})")
    c = lo + (hi - lo) / 2
    start = t + c
    if move_position(me.pos, dest, me.spec.speed, start, start + travel,
                     other_look) == other_pos_at_look:
        c = lo + (hi - lo) / 4
    return (c, Fraction(1))


class _ReferenceAdaptive:
    """``AdaptiveThm6`` in the reference loop: its initial waits, and each
    later decision made by ``reference_adaptive_decide`` on the loop's
    ``Rat`` robots."""

    def __init__(self, adversary):
        self.initial_waits = adversary.initial_waits

    def wait_time(self, robot_id, cycle, pair):
        if cycle == 0:
            return self.initial_waits[robot_id]
        return Fraction(1) if pair[0].travel else Fraction(0)

    def computation_delay(self, robot_id, cycle, pair):
        me = pair[0]
        return reference_adaptive_decide(pair, me.pos + me.shift)[0]


class _RefRobot:
    """A robot's state in the reference loop: its own ``phase``, and the
    fields ``reference_adaptive_decide`` reads (``pending`` is a view of
    ``phase``)."""

    def __init__(self, spec, policy):
        self.spec = spec
        self.policy = policy
        self.phase = "waiting"
        self.cycle = 0
        self.pos = spec.start
        self.look_time = Fraction(0)
        self.move_start = Fraction(0)
        self.move_end = Fraction(0)
        self.origin = spec.start
        self.dest = spec.start
        self.shift = Fraction(0)
        self.travel = Fraction(0)
        self.lam = None
        self.look_count = 0

    @property
    def next_time(self):
        return self.next_event()[0]

    @property
    def pending(self):
        """The kind of the next event, None once done, as the engine names it."""
        return {"waiting": LOOK, "computing": MOVE_START, "moving": MOVE_END}.get(self.phase)

    def enter_cycle(self, cycle, start, adversary, other):
        self.cycle = cycle
        wait = adversary.wait_time(self.spec.id, cycle, (self, other))
        if wait < 0:
            raise ValueError("adversary produced a negative wait")
        self.look_time = start + wait
        self.phase = "waiting"

    def next_event(self):
        if self.phase == "waiting":
            return self.look_time, "LOOK"
        if self.phase == "computing":
            return self.move_start, "MOVE_START"
        return self.move_end, "MOVE_END"

    def position_at(self, t):
        if self.phase == "moving":
            if t <= self.move_start:
                return self.origin
            if t >= self.move_end:
                return self.dest
            step = self.spec.speed * (t - self.move_start)
            return self.origin + step if self.dest > self.origin else self.origin - step
        return self.pos


def reference_events(robots, policies, adversary, rng_seed, budgets):
    """Run two robots and record each event as the loop processes it.

    Returns (events, final_status, look_count, horizon) with events as
    (time, robot_id, kind, payload) tuples, in the fields and order of
    ``Trace.events``.  Simultaneous events go LOOK, MOVE_END, MOVE_START,
    then by robot id.  An ``AdaptiveThm6`` decides through
    ``_ReferenceAdaptive``; any other adversary is asked as the engine asks
    it, with the reference robots for the pair.
    """
    tie = {"LOOK": 0, "MOVE_END": 1, "MOVE_START": 2}
    if isinstance(adversary, AdaptiveThm6):
        adversary = _ReferenceAdaptive(adversary)
    rng = rng_seed if isinstance(rng_seed, random.Random) else random.Random(rng_seed)
    states = {spec.id: _RefRobot(spec, policies[spec.id])
              for spec in sorted(robots, key=lambda s: s.id)}
    for rid, st in states.items():
        st.enter_cycle(0, Fraction(0), adversary,
                       next(o for r, o in states.items() if r != rid))

    events = []
    looks_done = 0
    while True:
        pending = [(st.next_event(), rid) for rid, st in states.items()
                   if st.phase != "done"]
        if not pending:
            status = "GATHERED"
            break
        (t, kind), rid = min(pending, key=lambda p: (p[0][0], tie[p[0][1]], p[1]))
        if t > budgets.max_time:
            status = "TIME_BUDGET_EXHAUSTED"
            break
        st = states[rid]
        other = next(o for r, o in states.items() if r != rid)
        if kind == "LOOK":
            if looks_done >= budgets.max_total_looks:
                status = "LOOK_BUDGET_EXHAUSTED"
                break
            looks_done += 1
            st.look_count += 1
            obs = other.position_at(t)
            events.append((t, rid, "LOOK",
                           {"cycle": st.cycle, "own": st.pos, "observed": (obs,)}))
            if obs == st.pos:
                events.append((t, rid, "DECIDE_GATHERED",
                               {"cycle": st.cycle, "position": st.pos}))
                st.phase = "done"
                continue
            lam = st.policy.sample(rng, st.cycle)
            dest = destination(st.pos, obs, lam)
            st.shift = dest - st.pos
            st.travel = abs(st.shift) / st.spec.speed
            compute = adversary.computation_delay(rid, st.cycle, (st, other))
            if compute < 0:
                raise ValueError("adversary produced a negative computation delay")
            st.lam, st.dest, st.origin = lam, dest, st.pos
            st.move_start = t + compute
            st.move_end = st.move_start + st.travel
            st.phase = "computing"
        elif kind == "MOVE_START":
            events.append((t, rid, "MOVE_START",
                           {"cycle": st.cycle, "lam": st.lam, "destination": st.dest}))
            st.phase = "moving"
        else:
            events.append((t, rid, "MOVE_END", {"cycle": st.cycle, "position": st.dest}))
            st.pos = st.dest
            st.enter_cycle(st.cycle + 1, t, adversary, other)

    horizon = events[-1][0] if events else Fraction(0)
    look_count = {rid: st.look_count for rid, st in states.items()}
    return events, status, look_count, horizon
