import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from gathersim import geometry
from gathersim.geometry import sqdist
from gathersim.multirobot import (
    Configuration,
    Entity,
    farthest_pairs,
    line_gather_step,
    merge_positions,
    reduce_to_line,
    tie_break_step,
)


def config(*points, mults=None):
    mults = mults or [1] * len(points)
    return Configuration([Entity((F(x), F(y)), m)
                          for (x, y), m in zip(points, mults)])


UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


class ForcedRng:
    """Deterministic stand-in yielding a scripted bit sequence."""

    def __init__(self, bits):
        self.bits = list(bits)

    def randrange(self, n):
        assert n == 2
        return self.bits.pop(0)


def test_farthest_pairs_square_and_collinear():
    sq = config(*UNIT_SQUARE)
    assert sorted(farthest_pairs(sq)) == [(0, 2), (1, 3)]
    line = config((0, 0), (1, 0), (3, 0))
    assert farthest_pairs(line) == [(0, 2)]
    assert farthest_pairs(config((5, 5))) == []


def test_farthest_pairs_matches_brute_force():
    rng = random.Random(12)
    for _ in range(20):
        pts = {(F(rng.randrange(-20, 21), 4), F(rng.randrange(-20, 21), 4))
               for _ in range(7)}
        cfg = Configuration([Entity(p) for p in sorted(pts)])
        best = max(sqdist(a.pos, b.pos)
                   for a, b in combinations(cfg.entities, 2))
        expected = [(i, j) for i, j in combinations(range(len(cfg.entities)), 2)
                    if sqdist(cfg.entities[i].pos, cfg.entities[j].pos) == best]
        assert sorted(farthest_pairs(cfg)) == sorted(expected)


def test_tie_break_single_draw_moves_outward():
    sq = config(*UNIT_SQUARE)
    out = tie_break_step(sq, ForcedRng([1, 0, 0, 0]))
    # Robot at (0,0) moved outward along its diagonal by d/100.
    positions = {e.pos for e in out.entities}
    assert (F(-1, 100), F(-1, 100)) in positions
    for p in [(F(1), F(0)), (F(1), F(1)), (F(0), F(1))]:
        assert p in positions
    assert len(farthest_pairs(out)) == 1


def test_tie_break_all_zero_is_identity():
    sq = config(*UNIT_SQUARE)
    out = tie_break_step(sq, ForcedRng([0, 0, 0, 0]))
    assert {e.pos for e in out.entities} == {e.pos for e in sq.entities}
    assert len(farthest_pairs(out)) == 2


def test_tie_break_lexicographic_direction_for_shared_robot():
    # A=(0,0) is 37 away from both B=(35,12) and C=(35,-12); |BC|=24.
    cfg = config((0, 0), (35, 12), (35, -12))
    assert sorted(farthest_pairs(cfg)) == [(0, 1), (0, 2)]
    out = tie_break_step(cfg, ForcedRng([1, 0, 0]))
    # A follows its lexicographically smallest pair (A, B): away from B.
    assert out.entities[0].pos == (F(-35, 100), F(-12, 100)) or \
        (F(-35, 100), F(-12, 100)) in {e.pos for e in out.entities}


def test_reduce_collinear_input_unchanged():
    cfg = config((0, 0), (1, 0), (3, 0))
    res = reduce_to_line(cfg, random.Random(0))
    assert res.tie_rounds == 0 and not res.partial
    assert {e.pos for e in res.config.entities} == {e.pos for e in cfg.entities}


def test_reduce_triangle_projects_inner_point():
    cfg = config((0, 0), (4, 0), (1, 2))
    res = reduce_to_line(cfg, random.Random(0))
    assert res.tie_rounds == 0
    assert {e.pos for e in res.config.entities} == {
        (F(0), F(0)), (F(4), F(0)), (F(1), F(0))}


def test_reduce_square_breaks_tie_and_projects():
    res = reduce_to_line(config(*UNIT_SQUARE), random.Random(5))
    assert not res.partial
    assert res.config.is_collinear()
    assert sum(e.multiplicity for e in res.config.entities) == 4


def test_reduce_respects_round_budget():
    # An rng that always draws zero never breaks the tie.
    class Zero:
        def randrange(self, n):
            return 0

    res = reduce_to_line(config(*UNIT_SQUARE), Zero(), max_tie_rounds=5)
    assert res.partial and res.tie_rounds == 5


def test_merge_conservation_through_steps():
    cfg = config((0, 0), (1, 0), (3, 0), (10, 0), mults=[2, 1, 1, 3])
    assert sum(e.multiplicity for e in cfg.entities) == 7
    stepped = line_gather_step(cfg)
    assert sum(e.multiplicity for e in stepped.entities) == 7


def test_line_gather_examples():
    one_step = line_gather_step(config((0, 0), (1, 0), (3, 0)))
    assert [(e.pos, e.multiplicity) for e in one_step.entities] == [((F(1), F(0)), 3)]

    four = line_gather_step(config((0, 0), (1, 0), (2, 0), (10, 0)))
    assert [(e.pos, e.multiplicity) for e in four.entities] == [
        ((F(1), F(0)), 2), ((F(2), F(0)), 2)]

    two = config((0, 0), (5, 0))
    assert line_gather_step(two) is two  # two positions: engine's job
    single = merge_positions([((F(1), F(1)), 4)])
    assert line_gather_step(single) is single


def test_line_gather_rejects_non_collinear():
    with pytest.raises(ValueError):
        line_gather_step(config((0, 0), (1, 0), (1, 1)))


def three_point_direct_check(positions, arrival_a_at_b, arrival_c_at_b, activation_b):
    """Can three collinear robots gather directly at the middle position?

    True iff the middle robot's activation does not fall strictly between
    the two outer robots' arrival times at its position; otherwise the
    situation degenerates to a two-robot problem.
    """
    a, b, c = positions
    if len({a, b, c}) != 3:
        raise ValueError("positions must be distinct")
    ab = geometry.sub(b, a)
    ac = geometry.sub(c, a)
    if geometry.cross(ab, ac) != 0:
        raise ValueError("positions must be collinear")
    t = geometry.dot(ab, ac)
    if not 0 < t < geometry.dot(ac, ac):
        raise ValueError("b must lie strictly between a and c")
    lo = min(arrival_a_at_b, arrival_c_at_b)
    hi = max(arrival_a_at_b, arrival_c_at_b)
    return not (lo < activation_b < hi)


def test_three_point_direct_check():
    pos = ((F(0), F(0)), (F(1), F(0)), (F(3), F(0)))
    assert three_point_direct_check(pos, F(1), F(2), F(5)) is True
    assert three_point_direct_check(pos, F(1), F(2), F(3, 2)) is False
    # simultaneous arrivals leave an empty in-between interval
    assert three_point_direct_check(pos, F(2), F(2), F(2)) is True
    with pytest.raises(ValueError):
        three_point_direct_check(((F(0), F(0)), (F(1), F(1)), (F(3), F(0))),
                                 F(1), F(2), F(3))


def test_configuration_rejects_duplicates():
    with pytest.raises(ValueError):
        Configuration([Entity((F(0), F(0))), Entity((F(0), F(0)))])
    merged = merge_positions([((F(0), F(0)), 1), ((F(0), F(0)), 2)])
    assert merged.entities[0].multiplicity == 3
