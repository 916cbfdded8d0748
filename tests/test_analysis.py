import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from oracles import (brute_force_attempts, brute_max_distance, is_mid_move,
                     reference_distance_profile, reference_looks_see_midmove,
                     reference_segment_attempts)
from test_engine import (NON_UNIT_SPEEDS, RAT_COMPARISONS, _rat_operations_inside,
                         mixed_speed_runs, tie_heavy_runs)
from test_experiments import _bundled

from gathersim import experiments
from gathersim.adversary import AdaptiveThm6, ObliviousExplicit, TauBounded
from gathersim.analysis import (
    AttemptRecord,
    PhaseRecord,
    _distance_profile,
    binomial_halfwidth_3sigma,
    classify_success,
    geometric_repeat_count,
    looks_mid_move,
    looks_see_midmove,
    max_distance_from,
    segment_attempts,
    segment_phases,
    theorem5_bound,
)
from gathersim.cli import pool_outcomes, pool_shares
from gathersim.engine import Budgets, RobotSpec, run
from gathersim.experiments import TrialOutcome
from gathersim.policies import TAU_TRIPLE, THREE_CHOICE, Deterministic, Oracle
from gathersim.rational import Rat, spawn_rng

BIG = F(10 ** 9)


def two_bots(x0="0", x1="1"):
    return [RobotSpec(0, F(x0), F(1)), RobotSpec(1, F(x1), F(1))]


def explicit(s0, s1):
    return ObliviousExplicit({0: [(F(w), F(c)) for w, c in s0],
                              1: [(F(w), F(c)) for w, c in s1]})


# ----------------------------------------------------------------------
# max_distance_from


def test_max_distance_idle_robots():
    tr = run(two_bots(), {0: Deterministic(F(0)), 1: Deterministic(F(0))},
             explicit([(1, 0)] * 4, [(1, 0)] * 4), 0, Budgets(4, BIG))
    assert max_distance_from(tr, F(0)) == F(1)
    assert max_distance_from(tr, tr.horizon) == F(1)


def test_max_distance_ignores_crossing_dip():
    # Robots cross (distance hits zero mid-move) then separate again: the
    # crossing dip must not show up in the future maximum.
    specs = two_bots()
    tr = run(specs, {0: Oracle([F(3, 2), F(0)]), 1: Oracle([F(1), F(0)])},
             explicit([(1, 0), (10, 0), (60, 0)], [(1, 0), (10, 0), (60, 0)]),
             0, Budgets(4, BIG))
    # robot 0: 0 -> 3/2, robot 1: 1 -> 0; they cross, final gap 3/2.
    t_after = max(s.move_end for rr in tr.runs.values() for s in rr.segments[:1])
    assert max_distance_from(tr, t_after) == F(3, 2)
    mid = F(1, 2) + F(1, 10)
    assert max_distance_from(tr, mid) >= F(3, 2) - F(1)  # sanity: positive
    assert brute_max_distance(tr, t_after) == max_distance_from(tr, t_after)


def test_max_distance_monotone_approach():
    tr = run(two_bots(), {0: Deterministic(F(1)), 1: Deterministic(F(0))},
             explicit([(1, 0)] * 3, [(9, 0)] * 3), 0, Budgets(3, BIG))
    assert max_distance_from(tr, F(0)) == F(1)
    assert max_distance_from(tr, F(2)) == F(0)


def test_max_distance_nonincreasing_property():
    specs = two_bots()
    adv = TauBounded(F(1, 10), seed=6)
    tr = run(specs, {0: TAU_TRIPLE, 1: TAU_TRIPLE}, adv,
             spawn_rng("dist-prop"), Budgets(40, BIG))
    grid = sorted({e.time for e in tr.events})
    values = [max_distance_from(tr, t) for t in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    for t in grid[::3]:
        assert max_distance_from(tr, t) == brute_max_distance(tr, t)


def assert_profile_matches_reference(tr):
    ts, dist, suffix = _distance_profile(tr)
    assert (ts, dist, suffix) == reference_distance_profile(tr)
    for t in ts:
        assert max_distance_from(tr, t) == brute_max_distance(tr, t)


@settings(max_examples=300, deadline=None)
@given(family_run=tie_heavy_runs)
def test_distance_profile_matches_reference(family_run):
    # The family has lambda 0 (zero-length moves), W = C = 0 (move starts
    # at one instant) and look and time budgets that stop a move in flight.
    make_run, budgets = family_run
    assert_profile_matches_reference(run(*make_run(), budgets))


def test_distance_profile_matches_reference_dyadic():
    specs = [RobotSpec(0, Rat(0), Rat(1)), RobotSpec(1, Rat(1), Rat(1))]
    for seed in range(6):
        adv = TauBounded(Rat(1, 1024), seed=seed)
        tr = run(specs, {0: TAU_TRIPLE, 1: TAU_TRIPLE}, adv,
                 spawn_rng("profile", seed), Budgets(30, BIG))
        assert_profile_matches_reference(tr)


@settings(max_examples=200, deadline=None)
@given(family_run=mixed_speed_runs)
def test_distance_profile_matches_reference_non_unit_speeds(family_run):
    # The sweep interpolates the robot in flight at its speed.
    make_run, budgets = family_run
    assert_profile_matches_reference(run(*make_run(), budgets))


@pytest.mark.parametrize("speeds", NON_UNIT_SPEEDS)
def test_distance_profile_matches_reference_dyadic_non_unit_speeds(speeds):
    specs = [RobotSpec(0, Rat(0), Rat(speeds[0])), RobotSpec(1, Rat(1), Rat(speeds[1]))]
    for seed in range(3):
        adv = TauBounded(Rat(1, 1024), seed=seed)
        tr = run(specs, {0: TAU_TRIPLE, 1: TAU_TRIPLE}, adv,
                 spawn_rng("profile-speeds", seed), Budgets(30, BIG))
        assert_profile_matches_reference(tr)
        assert segment_attempts(tr) == reference_segment_attempts(tr)


# ----------------------------------------------------------------------
# looks_see_midmove: one forward sweep, against a bisect per look


@settings(max_examples=300, deadline=None)
@given(family_run=tie_heavy_runs)
def test_midmove_sweep_matches_reference(family_run):
    # Explicit schedules with W = C = 0 and lambda 0 give same-instant
    # re-looks and looks of both robots at one instant, so the order of
    # the violations is compared too.
    make_run, budgets = family_run
    tr = run(*make_run(), budgets)
    assert looks_see_midmove(tr) == reference_looks_see_midmove(tr)
    a, b = tr.robot_ids
    for me, other in ((a, b), (b, a)):
        mine, theirs = tr.runs[me], tr.runs[other]
        assert list(looks_mid_move(mine, theirs)) == [
            is_mid_move(theirs, seg.look_time) for seg in mine.segments]


def test_midmove_sweep_matches_reference_random_runs():
    specs = two_bots()
    found = 0
    for seed in range(10):
        for adv in (TauBounded(F(1, 10), seed=seed), TauBounded(Rat(1, 1024), seed=seed),
                    AdaptiveThm6({0: F(2), 1: F(1)})):
            tr = run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, adv,
                     spawn_rng("midmove", seed), Budgets(60, BIG))
            got = looks_see_midmove(tr)
            assert got == reference_looks_see_midmove(tr)
            found += len(got[1])
    assert found  # the TAU_BOUNDED runs have looks that see the other at rest


def test_midmove_violations_in_time_then_robot_order():
    # Robot 0 looks every 1/2; robot 1 looks three times at t = 1 (lambda
    # 0, no wait).  Nobody moves, so every look after t = 1/2 is a
    # violation; robot 0's look at 3/2 comes after all of robot 1's at 1.
    adv = explicit([(F(1, 2), 0)] * 6, [(1, 0), (0, 0), (0, 0)] + [(9, 0)] * 3)
    tr = run(two_bots(), {0: Deterministic(F(0)), 1: Deterministic(F(0))}, adv, 0,
             Budgets(6, F(10)))
    expected = [(F(1), 0, False, True)] + [(F(1), 1, False, True)] * 3 + [
        (F(3, 2), 0, False, True)]
    assert looks_see_midmove(tr) == reference_looks_see_midmove(tr) == (False, expected)


def _midmove_comparisons(monkeypatch, looks, operators):
    """Calls of Rat's ``operators`` inside ``looks_see_midmove`` on trial 0
    of the bundled thm6 scenario, cut at ``looks`` looks."""
    scn = _bundled("thm6_adaptive", {"budgets": {"max_total_looks": looks}})
    outcome = []
    calls = _rat_operations_inside(
        monkeypatch, looks_see_midmove,
        lambda: outcome.append(experiments.run_one_trial(scn, 0)), operators)
    assert outcome[0].total_looks == looks and outcome[0].extras["midmove_ok_all"]
    return calls


def test_midmove_comparisons_are_linear(monkeypatch):
    # Counted, not timed.  Every look after the first finds the other robot
    # mid-move: the pointer steps once, to that move, and compares its end,
    # 2 ordering comparisons per look.  Comparing the next move's start as
    # well, to stop the pointer, made 3, although moves never overlap.  Each
    # look also tests == against the first look instant and != for the
    # distance.  A bisect per look makes about log2(segments) more.
    for looks in (100, 400):
        ordering = _midmove_comparisons(monkeypatch, looks, RAT_COMPARISONS)
        assert ordering <= 2 * looks, (looks, ordering)
        equality = _midmove_comparisons(monkeypatch, looks, ("__eq__",))
        assert equality <= 2 * looks, (looks, equality)


# ----------------------------------------------------------------------
# classify_success / segment_phases


def attempt(before, after):
    return AttemptRecord(look_pair=((0, 0, F(0)), (1, 0, F(0))),
                         all_looks_in_window=2, window=(F(0), F(1)),
                         max_dist_before=F(before), max_dist_after=F(after),
                         successful=2 * F(after) <= F(before), complete=True)


def test_classify_success_boundary():
    assert classify_success(F(1), F(1, 2)) is True   # boundary counts
    assert classify_success(F(1), F(3, 5)) is False
    assert classify_success(F(1), F(0)) is True


def test_segment_phases_shapes():
    seq = [attempt(1, 1), attempt(1, 1), attempt(1, 0), attempt(1, 0), attempt(1, 1)]
    phases = segment_phases(seq)
    assert [len(p.attempts) for p in phases] == [3, 1, 1]
    assert [p.terminal for p in phases] == [True, True, False]
    assert segment_phases([]) == []
    solo = segment_phases([attempt(1, 0)])
    assert len(solo) == 1 and solo[0].terminal
    with pytest.raises(ValueError):
        PhaseRecord(attempts=[], total_looks=0, terminal=False)


# ----------------------------------------------------------------------
# segment_attempts


def test_attempts_symmetric_simultaneous():
    tr = run(two_bots(), {0: Deterministic(F(1, 2)), 1: Deterministic(F(1, 2))},
             explicit([(1, 0)] * 3, [(1, 0)] * 3), 0, Budgets(6, BIG))
    attempts = segment_attempts(tr)
    assert len(attempts) == 1
    (a_ref, b_ref) = attempts[0].look_pair
    assert {a_ref[:2], b_ref[:2]} == {(0, 0), (1, 0)}
    assert attempts[0].all_looks_in_window == 2
    assert attempts[0].successful  # they gather: after-distance 0


def test_attempts_zero_lambda_relooks_take_latest():
    # The later mover is robot 0 (moves at t=1); robot 1 looked three
    # times at one instant (two zero-lambda re-looks), and only its third
    # look joins the pair; the window holds 4 looks in total.
    specs = two_bots()
    sched0 = [(1, 0), (9, 0), (9, 0)]
    sched1 = [(F(1, 10), 0), (0, 0), (0, 0), (5, 0), (9, 0)]
    adv = ObliviousExplicit({0: [(F(w), F(c)) for w, c in sched0],
                             1: [(F(w), F(c)) for w, c in sched1]})
    tr = run(specs, {0: Oracle([F(1, 2), F(0)]), 1: Oracle([F(0), F(0), F(1, 2), F(0)])},
             adv, 0, Budgets(6, BIG))
    attempts = segment_attempts(tr)
    assert attempts, "one full attempt expected"
    first = attempts[0]
    later, other = first.look_pair
    assert later[:2] == (0, 0)
    assert other[:2] == (1, 2)  # third look = cycle index 2
    assert first.all_looks_in_window == 4


def test_attempts_match_brute_force_on_random_short_runs():
    for seed in range(30):
        rng = spawn_rng("seg-fuzz", seed)
        specs = two_bots(x1="2")
        sched = {rid: [(F(rng.randrange(0, 9), 4), F(rng.randrange(0, 5), 8))
                       for _ in range(10)] for rid in (0, 1)}
        adv = ObliviousExplicit(sched)
        tr = run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, adv,
                 spawn_rng("seg-fuzz-alg", seed), Budgets(8, BIG))
        mine = segment_attempts(tr)
        ref = brute_force_attempts(tr)
        assert len(mine) == len(ref), seed
        for m, r in zip(mine, ref):
            assert m.look_pair[0] == r["later"]
            assert m.look_pair[1] == r["other"]
            assert m.window == r["window"]
            assert m.all_looks_in_window == r["looks"]
            assert m.max_dist_before == r["before"]
            assert m.max_dist_after == r["after"]
            assert m.successful == r["successful"]


@pytest.mark.parametrize("speeds", NON_UNIT_SPEEDS)
def test_attempts_match_brute_force_at_non_unit_speeds(speeds):
    for seed in range(10):
        rng = spawn_rng("seg-speeds", seed)
        specs = [RobotSpec(0, F(0), speeds[0]), RobotSpec(1, F(2), speeds[1])]
        sched = {rid: [(F(rng.randrange(0, 9), 4), F(rng.randrange(0, 5), 8))
                       for _ in range(10)] for rid in (0, 1)}
        tr = run(specs, {0: THREE_CHOICE, 1: THREE_CHOICE}, ObliviousExplicit(sched),
                 spawn_rng("seg-speeds-alg", seed), Budgets(8, BIG))
        mine = segment_attempts(tr)
        ref = brute_force_attempts(tr)
        assert [(m.look_pair, m.window, m.all_looks_in_window, m.max_dist_before,
                 m.max_dist_after, m.successful) for m in mine] == [
            ((r["later"], r["other"]), r["window"], r["looks"], r["before"], r["after"],
             r["successful"]) for r in ref], seed


@settings(max_examples=300, deadline=None)
@given(family_run=tie_heavy_runs)
def test_attempts_match_reference(family_run):
    # Every field, ``complete`` included, equals the direct scan's.
    make_run, budgets = family_run
    tr = run(*make_run(), budgets)
    assert segment_attempts(tr) == reference_segment_attempts(tr)


@settings(max_examples=200, deadline=None)
@given(family_run=mixed_speed_runs)
def test_attempts_match_reference_non_unit_speeds(family_run):
    make_run, budgets = family_run
    tr = run(*make_run(), budgets)
    assert segment_attempts(tr) == reference_segment_attempts(tr)


def test_attempts_partition_look_counts():
    specs = two_bots()
    adv = TauBounded(F(1, 10), seed=9)
    tr = run(specs, {0: TAU_TRIPLE, 1: TAU_TRIPLE}, adv,
             spawn_rng("partition"), Budgets(60, BIG))
    attempts = segment_attempts(tr)
    phases = segment_phases(attempts)
    assert sum(p.total_looks for p in phases) == sum(a.all_looks_in_window for a in attempts)
    # windows tile: each attempt begins where the previous one ended
    for prev, nxt in zip(attempts, attempts[1:]):
        assert prev.window[1] == nxt.window[0]


def test_tau_triple_phase_halving():
    # Terminal phases at least halve the maximum distance.
    done = 0
    for seed in range(12):
        tr = run(two_bots(), {0: TAU_TRIPLE, 1: TAU_TRIPLE},
                 TauBounded(F(1, 10), seed=seed), spawn_rng("halve", seed),
                 Budgets(120, BIG))
        for ph in segment_phases(segment_attempts(tr)):
            if ph.terminal:
                first, last = ph.attempts[0], ph.attempts[-1]
                assert 2 * last.max_dist_after <= first.max_dist_before
                done += 1
    assert done > 10


# ----------------------------------------------------------------------
# pooling / bounds


def test_pool_outcomes_means_and_errors():
    t1 = run(two_bots(), {0: Deterministic(F(1, 2)), 1: Deterministic(F(1, 2))},
             explicit([(1, 0)] * 3, [(1, 0)] * 3), 0, Budgets(4, BIG))
    t2 = run(two_bots(), {0: Deterministic(F(1)), 1: Deterministic(F(1))},
             explicit([(1, 0)] * 3, [(1, 0)] * 3), 0, Budgets(2, BIG))
    stats = pool_outcomes([
        TrialOutcome(trial=i, gathered=t.gathered, total_looks=sum(t.look_count.values()))
        for i, t in enumerate((t1, t2))])
    assert stats["mean_total_looks"] == "3"  # looks 4 and 2
    assert stats["gathered_fraction"] == "1/2"
    assert stats["trials"] == 2
    with pytest.raises(ValueError):
        pool_outcomes([])


def test_pool_shares_rules():
    # Bools pool by all, ints are summed, tuples are joined into one list
    # in trial order and histograms are summed per key, in sorted key order; a key that
    # only some trials have pools over those trials.
    shares = [
        {"ok": True, "n": 2, "hist": {"3": 1}, "looks": (4, 1)},
        {"ok": False, "n": 0, "hist": {"10": 2}, "looks": ()},
        {"ok": True, "n": 5, "hist": {"3": 1, "0": 4}, "looks": (9,), "late": 3},
    ]
    pooled = pool_shares(shares)
    assert pooled == {"ok": False, "n": 7, "hist": {"0": 4, "10": 2, "3": 2},
                      "looks": [4, 1, 9], "late": 3}
    assert list(pooled["hist"]) == ["0", "10", "3"]
    assert pooled["ok"] is False
    assert shares[0] == {"ok": True, "n": 2, "hist": {"3": 1}, "looks": (4, 1)}  # untouched
    assert pool_shares([{"ok": True}]) == {"ok": True}
    assert pool_shares([{}, {}]) == {}


def test_pool_outcomes_reads_stats_shares():
    outcomes = [
        TrialOutcome(trial=0, gathered=True, total_looks=4,
                     stats={"n_attempts": 2, "attempt_successes": 1, "phase_looks": (3,),
                            "attempts_per_phase_hist": {"2": 1}}),
        TrialOutcome(trial=1, gathered=False, total_looks=6),
        TrialOutcome(trial=2, gathered=True, total_looks=5,
                     stats={"n_attempts": 2, "attempt_successes": 2, "phase_looks": (5, 1),
                            "attempts_per_phase_hist": {"1": 2}}),
    ]
    stats = pool_outcomes(outcomes)
    assert (stats["n_attempts"], stats["n_phases"]) == (4, 3)
    assert stats["mean_attempt_success_rate"] == "0.75"
    assert stats["mean_looks_per_phase"] == "3"
    assert stats["attempts_per_phase_hist"] == {"1": 2, "2": 1}
    assert stats["k_histogram"] == {}
    # Histograms no trial hands in stay empty; samples no trial hands in
    # leave their statistics unset.
    plain = pool_outcomes([TrialOutcome(trial=0, gathered=True, total_looks=1)])
    assert plain["attempts_per_phase_hist"] == plain["k_histogram"] == {}
    assert (plain["n_attempts"], plain["n_phases"]) == (0, 0)
    assert plain["mean_attempt_success_rate"] is plain["mean_looks_per_phase"] is None
    assert "mean_attempt_success_rate" not in plain["halfwidth_3sigma"]


def test_binomial_ci_covers_bernoulli():
    rng = random.Random(4)
    n = 10_000
    p = 2 / 9
    hits = sum(rng.random() < p for _ in range(n))
    half = binomial_halfwidth_3sigma(p, n)
    assert abs(half - 3 * math.sqrt(p * (1 - p) / n)) < 1e-12
    assert abs(hits / n - p) <= half


def test_theorem5_bound_values():
    assert theorem5_bound(F(1024), F(1)) == pytest.approx(198.0)
    assert theorem5_bound(F(1), F(1)) == pytest.approx(18.0)
    assert theorem5_bound(F(8), F(1)) == pytest.approx(72.0)
    assert theorem5_bound(F(1), F(2)) == 18.0  # clamped when delta < tau
    with pytest.raises(ValueError):
        theorem5_bound(F(0), F(1))


def test_geometric_repeat_count():
    d = F(1)
    assert geometric_repeat_count(F(2, 5), d) == 1
    assert geometric_repeat_count(F(3, 5), d) == 2
    assert geometric_repeat_count(F(99, 100), d) == 7
    # oracle: direct enumeration of the partial sums
    for gamma in (F(1, 10), F(1, 2), F(7, 10), F(15, 16)):
        k = geometric_repeat_count(gamma, d)
        assert d * (1 - F(1, 2 ** k)) > gamma
        assert k == 1 or d * (1 - F(1, 2 ** (k - 1))) <= gamma
    with pytest.raises(ValueError):
        geometric_repeat_count(F(1), F(1))
