"""Exact geometry on rational coordinates: where a robot is during a rigid
move on the line, and 2D vector helpers."""

from __future__ import annotations

from .rational import HALF, Rat

Point = tuple[Rat, Rat]


def move_position(origin: Rat, dest: Rat, speed: Rat,
                  move_start: Rat, move_end: Rat, t: Rat) -> Rat:
    """Position at ``t`` of a rigid move from ``origin`` to ``dest`` at
    ``speed`` over [move_start, move_end]: ``origin`` up to the start,
    ``dest`` from the end on."""
    if t <= move_start:
        return origin
    if t >= move_end:
        return dest
    step = speed * (t - move_start)
    return origin + step if dest > origin else origin - step


def add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def scale(a: Point, k: Rat) -> Point:
    return (a[0] * k, a[1] * k)


def dot(a: Point, b: Point) -> Rat:
    return a[0] * b[0] + a[1] * b[1]


def cross(a: Point, b: Point) -> Rat:
    return a[0] * b[1] - a[1] * b[0]


def sqdist(a: Point, b: Point) -> Rat:
    d = sub(a, b)
    return dot(d, d)


def project_point_to_line(q: Point, a: Point, b: Point) -> Point:
    """Orthogonal projection of q onto the line through a and b."""
    ab = sub(b, a)
    denom = dot(ab, ab)
    if denom == 0:
        raise ValueError("a and b coincide; line undefined")
    t = dot(sub(q, a), ab) / denom
    return add(a, scale(ab, t))


def line_coordinate(q: Point, p1: Point, p2: Point) -> Rat:
    """1D coordinate of q's projection on the line through p1 and p2.

    Frame: midpoint of p1p2 is the origin and p1 lies on the positive
    axis at coordinate +1, i.e. the unit is half the separation.  This
    keeps coordinates rational for arbitrary rational endpoints.
    """
    m = scale(add(p1, p2), HALF)
    axis = sub(p1, m)
    denom = dot(axis, axis)
    if denom == 0:
        raise ValueError("p1 and p2 coincide; line undefined")
    return dot(sub(q, m), axis) / denom


def unit_from_slope(t: Rat) -> Point:
    """Rational unit vector ((1 - t^2), 2t) / (1 + t^2)."""
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)
