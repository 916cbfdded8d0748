"""Lambda-class movement policies.

A policy draws a fraction ``lam``; the robot then moves ``lam`` times the
observed distance towards the other robot's snapshot position.  Negative
values and values above 1 are legal (they move away from / overshoot the
observed position).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .rational import HALF, ONE, ZERO, Rat, parse_rat, u01

OPPOSITE_DIRECTIONS = "opposite_directions"
SAME_DIRECTION = "same_direction"


class PolicyError(Exception):
    pass


class OracleScriptExhausted(PolicyError):
    """An Oracle policy was asked for more values than it was scripted with."""


class NoCatchupError(ValueError):
    """Equal speeds in the same direction never meet."""


def destination(own: Rat, other_observed: Rat, lam: Rat) -> Rat:
    """Destination of a lambda-class move: own + lam * (other - own)."""
    return own + lam * (other_observed - own)


def _integer_grid(weights) -> tuple[int, list[int]]:
    """Exact sampling of rational weights on an integer grid.

    Returns the least common denominator of ``weights`` and their running
    sums over it: ``k = rng.randrange(denom)`` picks the first branch whose
    running sum exceeds ``k``.
    """
    denom = math.lcm(*(w.denominator for w in weights))
    cums = []
    cum = 0
    for w in weights:
        cum += w.numerator * (denom // w.denominator)
        cums.append(cum)
    return denom, cums


@dataclass
class Deterministic:
    lam: Rat

    kind = "DETERMINISTIC"

    def sample(self, rng: random.Random) -> Rat:
        return self.lam


@dataclass
class FiniteMixture:
    """Finitely many lambda values with positive rational probabilities."""

    choices: list[tuple[Rat, Rat]]
    _grid: tuple[int, list[tuple[int, Rat]]] = field(init=False, repr=False)

    kind = "FINITE_MIXTURE"

    def __post_init__(self):
        if not self.choices:
            raise PolicyError("mixture needs at least one choice")
        total = sum(p for _, p in self.choices)
        if total != 1:
            raise PolicyError(f"mixture probabilities sum to {total}, not 1")
        if any(p <= 0 for _, p in self.choices):
            raise PolicyError("mixture probabilities must be positive")
        denom, cums = _integer_grid([p for _, p in self.choices])
        self._grid = (denom, list(zip(cums, (lam for lam, _ in self.choices))))

    def sample(self, rng: random.Random) -> Rat:
        denom, thresholds = self._grid
        k = rng.randrange(denom)
        for cum, lam in thresholds:
            if k < cum:
                return lam
        raise AssertionError("unreachable")


@dataclass
class ThreeChoice:
    """1, 1/2, or a uniform draw from (0, 1), each with probability 1/3."""

    kind = "THREE_CHOICE"

    def sample(self, rng: random.Random) -> Rat:
        i = rng.randrange(3)
        if i == 0:
            return ONE
        if i == 1:
            return HALF
        return u01(rng)


@dataclass
class TauTriple:
    """1, 1/2, or 0, each with probability 1/3."""

    kind = "TAU_TRIPLE"

    def sample(self, rng: random.Random) -> Rat:
        i = rng.randrange(3)
        if i == 0:
            return ONE
        if i == 1:
            return HALF
        return ZERO


@dataclass
class KnownAlpha:
    """Mixture for a known speed ratio alpha.

    Draws from {1/(alpha+1), alpha/(alpha+1), 1, U(0,1)}, uniformly by
    default; the robots are anonymous so both alpha-dependent values must
    be present.  ``weights`` reweights the four branches in that order.
    """

    alpha: Rat
    weights: tuple[Rat, Rat, Rat, Rat] = (
        Rat(1, 4), Rat(1, 4), Rat(1, 4), Rat(1, 4))

    kind = "KNOWN_ALPHA"

    def __post_init__(self):
        if self.alpha <= 0:
            raise PolicyError("alpha must be positive")
        self.weights = tuple(Rat(w) for w in self.weights)
        if len(self.weights) != 4 or any(w <= 0 for w in self.weights):
            raise PolicyError("need four positive branch weights")
        if sum(self.weights) != 1:
            raise PolicyError("branch weights must sum to 1")
        self._denom, self._thresholds = _integer_grid(self.weights)

    @property
    def support(self) -> tuple[Rat, Rat]:
        a = self.alpha
        return (1 / (a + 1), a / (a + 1))

    def sample(self, rng: random.Random) -> Rat:
        lo, hi = self.support
        k = rng.randrange(self._denom)
        if k < self._thresholds[0]:
            return lo
        if k < self._thresholds[1]:
            return hi
        if k < self._thresholds[2]:
            return ONE
        return u01(rng)


@dataclass
class Oracle:
    """Scripted lambda sequence; raises once the script runs out."""

    script: list[Rat]
    _cursor: int = field(default=0, init=False, repr=False)

    kind = "ORACLE"

    def sample(self, rng: random.Random) -> Rat:
        if self._cursor >= len(self.script):
            raise OracleScriptExhausted(
                f"oracle script of length {len(self.script)} exhausted"
            )
        lam = self.script[self._cursor]
        self._cursor += 1
        return lam


LambdaPolicy = Deterministic | FiniteMixture | ThreeChoice | TauTriple | KnownAlpha | Oracle

def policy_from_descriptor(desc: dict) -> LambdaPolicy:
    """Instantiate a fresh policy from its serializable descriptor."""
    if not isinstance(desc, dict):
        raise PolicyError("descriptor must be an object")
    kind = desc.get("kind")
    if kind == "DETERMINISTIC":
        return Deterministic(parse_rat(desc["lam"]))
    if kind == "FINITE_MIXTURE":
        return FiniteMixture([(parse_rat(l), parse_rat(p)) for l, p in desc["choices"]])
    if kind == "THREE_CHOICE":
        return ThreeChoice()
    if kind == "TAU_TRIPLE":
        return TauTriple()
    if kind == "KNOWN_ALPHA":
        if "weights" in desc:
            return KnownAlpha(parse_rat(desc["alpha"]),
                              tuple(parse_rat(w) for w in desc["weights"]))
        return KnownAlpha(parse_rat(desc["alpha"]))
    if kind == "ORACLE":
        return Oracle([parse_rat(x) for x in desc["script"]])
    raise PolicyError(f"unknown policy kind {kind!r}")


def gather_lambda_oracle(alpha: Rat, geometry: str) -> Rat:
    """Exact lambda that makes the moving faster robot get caught.

    ``alpha`` is the speed of the already-moving robot relative to the
    choosing robot.  With both robots heading towards each other the
    fraction is 1/(alpha+1); in the chase configuration (both moving the
    same way) it is 1/(alpha-1), undefined for equal speeds.
    """
    alpha = Rat(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if geometry == OPPOSITE_DIRECTIONS:
        return 1 / (alpha + 1)
    if geometry == SAME_DIRECTION:
        if alpha == 1:
            raise NoCatchupError("equal speeds moving the same way never meet")
        return 1 / (alpha - 1)
    raise ValueError(f"unknown geometry {geometry!r}")
