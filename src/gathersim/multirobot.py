"""n-robot gathering with merging: plane configurations, reduction to a
line, and line gathering where collocated robots fuse into one entity.

Steps are round-based and rigid: the entities that move reach their computed
destinations before the next round.  Collocated entities merge and their
multiplicities add.  Once two distinct positions remain, the continuous
two-robot engine finishes the job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from . import geometry
from .geometry import Point
from .rational import ZERO, Rat


@dataclass(frozen=True)
class Entity:
    pos: Point
    multiplicity: int = 1


@dataclass
class Configuration:
    entities: list[Entity]

    def __post_init__(self):
        if len({e.pos for e in self.entities}) != len(self.entities):
            raise ValueError("entity positions must be pairwise distinct")
        if any(e.multiplicity < 1 for e in self.entities):
            raise ValueError("multiplicities are positive")

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entities)

    def is_collinear(self) -> bool:
        if len(self.entities) <= 2:
            return True
        a = self.entities[0].pos
        b = self.entities[1].pos
        ab = geometry.sub(b, a)
        return all(geometry.cross(ab, geometry.sub(e.pos, a)) == 0
                   for e in self.entities[2:])


def merge_positions(positions_mults: list[tuple[Point, int]]) -> Configuration:
    """Collapse coincident positions, summing multiplicities."""
    merged: dict[Point, int] = {}
    for pos, mult in positions_mults:
        merged[pos] = merged.get(pos, 0) + mult
    ents = [Entity(pos, m) for pos, m in sorted(merged.items())]
    return Configuration(entities=ents)


def farthest_pairs(config: Configuration) -> list[tuple[int, int]]:
    """All index pairs achieving the exact maximum squared distance."""
    n = len(config.entities)
    if n < 2:
        return []
    best = ZERO
    pairs: list[tuple[int, int]] = []
    for i, j in combinations(range(n), 2):
        d = geometry.sqdist(config.entities[i].pos, config.entities[j].pos)
        if d > best:
            best = d
            pairs = [(i, j)]
        elif d == best:
            pairs.append((i, j))
    return pairs


def tie_break_step(config: Configuration, rng: random.Random) -> Configuration:
    """One symmetry-breaking round among tied farthest pairs.

    Every robot that belongs to some farthest pair draws lambda
    uniformly from {0, 1} and moves lambda/100 of its pair's distance
    linearly outwards along the pair's line.  A robot in several tied
    pairs follows its lexicographically smallest pair.  Robots outside the
    tied pairs stay frozen.
    """
    pairs = sorted(farthest_pairs(config))
    involved: dict[int, tuple[int, int]] = {}
    for pair in pairs:
        for idx in pair:
            involved.setdefault(idx, pair)
    new_positions: list[tuple[Point, int]] = []
    for idx, ent in enumerate(config.entities):
        pair = involved.get(idx)
        if pair is None:
            new_positions.append((ent.pos, ent.multiplicity))
            continue
        lam = Rat(rng.randrange(2))
        if lam == 0:
            new_positions.append((ent.pos, ent.multiplicity))
            continue
        other = config.entities[pair[1] if idx == pair[0] else pair[0]].pos
        # Outward along the pair's line by lam * d / 100: the unit vector
        # times d is just the difference vector, so the step stays rational.
        step = geometry.scale(geometry.sub(ent.pos, other), lam / 100)
        new_positions.append((geometry.add(ent.pos, step), ent.multiplicity))
    return merge_positions(new_positions)


@dataclass
class ReduceResult:
    config: Configuration
    tie_rounds: int
    partial: bool


def reduce_to_line(config: Configuration, rng: random.Random,
                   max_tie_rounds: int = 1000) -> ReduceResult:
    """Break farthest-pair ties, then project everyone onto the unique
    farthest pair's line.

    Every tied robot activates in each round.  Returns a PARTIAL result if
    ties survive the round budget.
    """
    cfg = config
    rounds = 0
    while len(farthest_pairs(cfg)) > 1:
        if rounds >= max_tie_rounds:
            return ReduceResult(config=cfg, tie_rounds=rounds, partial=True)
        cfg = tie_break_step(cfg, rng)
        rounds += 1

    (i, j), = farthest_pairs(cfg)
    a, b = cfg.entities[i].pos, cfg.entities[j].pos
    pair_dist = geometry.sqdist(a, b)
    projected = [(geometry.project_point_to_line(e.pos, a, b), e.multiplicity)
                 for e in cfg.entities]
    out = merge_positions(projected)
    assert out.is_collinear()
    assert max(geometry.sqdist(p.pos, q.pos)
               for p, q in combinations(out.entities, 2)) == pair_dist, \
        "projection must not create a new farthest pair"
    return ReduceResult(config=out, tie_rounds=rounds, partial=False)


def _line_order(config: Configuration) -> list[int]:
    """Entity indices sorted along the supporting line."""
    a = config.entities[0].pos
    if len(config.entities) == 1:
        return [0]
    b = next(e.pos for e in config.entities[1:] if e.pos != a)
    axis = geometry.sub(b, a)
    return sorted(range(len(config.entities)),
                  key=lambda i: geometry.dot(geometry.sub(config.entities[i].pos, a), axis))


def line_gather_step(config: Configuration) -> Configuration:
    """One merging round on a line: each outermost entity moves to its
    nearest inner entity's position; inner entities stay put."""
    if not config.is_collinear():
        raise ValueError("line_gather_step needs a collinear configuration")
    if len(config.entities) <= 2:
        return config
    order = _line_order(config)
    lo, hi = order[0], order[-1]
    lo_target = config.entities[order[1]].pos
    hi_target = config.entities[order[-2]].pos
    moved = []
    for idx, ent in enumerate(config.entities):
        if idx == lo:
            moved.append((lo_target, ent.multiplicity))
        elif idx == hi:
            moved.append((hi_target, ent.multiplicity))
        else:
            moved.append((ent.pos, ent.multiplicity))
    return merge_positions(moved)


def three_point_direct_check(positions: tuple[Point, Point, Point],
                             arrival_a_at_b: Rat,
                             arrival_c_at_b: Rat,
                             activation_b: Rat) -> bool:
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
