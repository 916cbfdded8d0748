"""Lambda-class movement policies.

A policy draws a fraction ``lam``; the robot then moves ``lam`` times the
observed distance towards the other robot's snapshot position.  Negative
values and values above 1 are legal (they move away from / overshoot the
observed position).

Every randomized policy is a ``Mixture`` of finitely many values and at
most one uniform draw from (0, 1): THREE_CHOICE, TAU_TRIPLE, and the
ones ``known_alpha`` and FINITE_MIXTURE descriptors build.
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


@dataclass
class Deterministic:
    """Always the same lambda; draws nothing from the RNG."""

    lam: Rat

    def sample(self, rng: random.Random) -> Rat:
        return self.lam


@dataclass
class Mixture:
    """Finitely many lambda values with positive rational probabilities,
    plus a uniform draw from (0, 1) with probability ``uniform``.

    A draw is one ``rng.randrange`` over the least common denominator of
    the probabilities: the first choice whose running sum exceeds it is
    the value, and a draw past the last choice falls in the uniform branch,
    which makes one ``u01`` draw.
    """

    choices: tuple[tuple[Rat, Rat], ...]  # (lambda, probability) pairs
    uniform: Rat = ZERO

    def __post_init__(self):
        probs = [p for _, p in self.choices]
        if any(p <= 0 for p in probs) or self.uniform < 0:
            raise PolicyError("mixture probabilities must be positive")
        total = sum(probs) + self.uniform
        if total != 1:
            raise PolicyError(f"mixture probabilities sum to {total}, not 1")
        denom = math.lcm(*(p.denominator for p in probs), self.uniform.denominator)
        thresholds = []
        cum = 0
        for lam, p in self.choices:
            cum += p.numerator * (denom // p.denominator)
            thresholds.append((cum, lam))
        # Not a field: equality compares the choices and the uniform mass.
        self._grid = (denom, thresholds)

    def sample(self, rng: random.Random) -> Rat:
        denom, thresholds = self._grid
        k = rng.randrange(denom)
        for cum, lam in thresholds:
            if k < cum:
                return lam
        return u01(rng)


# 1, 1/2, or a uniform draw from (0, 1), each with probability 1/3.
THREE_CHOICE = Mixture(((ONE, Rat(1, 3)), (HALF, Rat(1, 3))), Rat(1, 3))

# 1, 1/2, or 0, each with probability 1/3.
TAU_TRIPLE = Mixture(((ONE, Rat(1, 3)), (HALF, Rat(1, 3)), (ZERO, Rat(1, 3))))


def known_alpha(alpha: Rat, weights=(Rat(1, 4),) * 4) -> Mixture:
    """Mixture for a known speed ratio alpha.

    Draws from {1/(alpha+1), alpha/(alpha+1), 1, U(0,1)}, uniformly by
    default; the robots are anonymous so both alpha-dependent values must
    be present.  ``weights`` reweights the four branches in that order.
    """
    if alpha <= 0:
        raise PolicyError("alpha must be positive")
    weights = tuple(Rat(w) for w in weights)
    if len(weights) != 4 or any(w <= 0 for w in weights):
        raise PolicyError("need four positive branch weights")
    values = (1 / (alpha + 1), alpha / (alpha + 1), ONE)
    return Mixture(tuple(zip(values, weights)), weights[3])


@dataclass
class Oracle:
    """Scripted lambda sequence; raises once the script runs out."""

    script: list[Rat]
    _cursor: int = field(default=0, init=False, repr=False)

    def sample(self, rng: random.Random) -> Rat:
        if self._cursor >= len(self.script):
            raise OracleScriptExhausted(
                f"oracle script of length {len(self.script)} exhausted"
            )
        lam = self.script[self._cursor]
        self._cursor += 1
        return lam


LambdaPolicy = Deterministic | Mixture | Oracle


def policy_from_descriptor(desc: dict) -> LambdaPolicy:
    """The policy a serializable descriptor describes; THREE_CHOICE and
    TAU_TRIPLE hold no state, so each is one shared object."""
    if not isinstance(desc, dict):
        raise PolicyError("descriptor must be an object")
    fields = dict(desc)  # each read pops its key, so what is left is unknown
    kind = fields.pop("kind", None)
    if kind == "DETERMINISTIC":
        policy = Deterministic(parse_rat(fields.pop("lam")))
    elif kind == "FINITE_MIXTURE":
        policy = Mixture(tuple((parse_rat(l), parse_rat(p)) for l, p in fields.pop("choices")))
    elif kind == "THREE_CHOICE":
        policy = THREE_CHOICE
    elif kind == "TAU_TRIPLE":
        policy = TAU_TRIPLE
    elif kind == "KNOWN_ALPHA":
        alpha = parse_rat(fields.pop("alpha"))
        if "weights" in fields:
            policy = known_alpha(alpha, tuple(parse_rat(w) for w in fields.pop("weights")))
        else:
            policy = known_alpha(alpha)
    elif kind == "ORACLE":
        policy = Oracle([parse_rat(x) for x in fields.pop("script")])
    else:
        raise PolicyError(f"unknown policy kind {kind!r}")
    if fields:
        raise PolicyError(f"unknown key {next(iter(fields))!r}")
    return policy


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
