"""Exact rational scalars and seeded randomness helpers.

Every continuous quantity in the simulator (time, position, speed, wait,
delay, lambda) is a ``fractions.Fraction``.  Floats never enter the core:
two events either coincide exactly or they do not, and the gathering
predicate is exact collocation.

``Dyadic`` is a ``Fraction`` subclass for values m / 2**e.  Its arithmetic
is shifts and integer adds, never a gcd, which is what keeps long adaptive
runs fast: their denominators grow by about 20 bits per look.  The
representation is chosen per scenario, from its input: when every rational
of a ``two_robot`` or ``thm6`` scenario is dyadic, its trials build their
inputs (robot starts and speeds, waits, params, adversary values) as
``Dyadic``; any other scenario uses plain ``Fraction`` throughout.  The
constants below and ``u01`` stay plain, since a Dyadic operand takes in
their power-of-two denominators.  An operation whose result is not dyadic,
or whose operand is not, gives the plain ``Fraction`` result, so values
and formatting never depend on the representation.
"""

from __future__ import annotations

import hashlib
import operator
import random
from fractions import Fraction
from math import isqrt

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Uniform draws from (0, 1) are k / 2**53 with k in [1, 2**53 - 1]; the
# resolution is fixed so probability estimates are interpretable.
U01_BITS = 53
U01_DEN = 1 << U01_BITS


# Caps on a parsed rational: digits in a string (or decimal digits of an
# int) and the size of a decimal exponent.  Without them "1e1000000000"
# would build a gigabit integer before any check could run.
MAX_DIGITS = 1000
MAX_EXPONENT = 1000
_INT_LIMIT = 10 ** MAX_DIGITS


def parse_rat(value) -> Fraction:
    """Parse an exact rational from an int or a "p/q" / decimal string.

    Floats are rejected on purpose: scenario files must carry exact values.
    Inputs past ``MAX_DIGITS`` digits or ``MAX_EXPONENT`` are rejected.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        if abs(value) >= _INT_LIMIT:
            raise ValueError(f"integer has more than {MAX_DIGITS} digits")
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_DIGITS and sum(map(str.isdigit, text)) > MAX_DIGITS:
            raise ValueError(f"rational has more than {MAX_DIGITS} digits")
        if "e" in text or "E" in text:
            exp = text.lower().rpartition("e")[2].replace("_", "").lstrip("+-")
            if exp.isdecimal() and int(exp) > MAX_EXPONENT:
                raise ValueError(f"exponent of {value!r} is beyond +-{MAX_EXPONENT}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r} (use a string like '3/4' or '0.25')")


def format_rat(x: Fraction) -> str:
    """Serialize as "p/q", or plain "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a perfect rational square.

    Raises ValueError when x is negative or has no rational root.
    """
    if x < 0:
        raise ValueError(f"square root of negative rational {x}")
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rn, rd)


class Dyadic(Fraction):
    """Exact m / 2**e, kept normalised (m odd, or e == 0); never calls gcd.

    ``+ - * /``, the comparisons, ``-x`` and ``abs`` stay Dyadic when the
    other operand is a Dyadic, an int or a Fraction with a power-of-two
    denominator, except a division by anything but +-2**k.  Every other
    case is left to Fraction and gives a plain, exact Fraction.  Numerator,
    denominator, ``==``, ``hash`` and ``str`` are Fraction's own.
    """

    __slots__ = ("_exp",)

    def __new__(cls, numerator=0, denominator=None):
        return to_dyadic(Fraction(numerator, denominator))

    def __add__(a, b):
        p = _split(b)
        if p is None:
            return Fraction.__add__(a, b)
        return _sum(a._numerator, a._exp, *p)

    def __sub__(a, b):
        p = _split(b)
        if p is None:
            return Fraction.__sub__(a, b)
        return _sum(a._numerator, a._exp, -p[0], p[1])

    def __rsub__(a, b):
        p = _split(b)
        if p is None:
            return Fraction.__rsub__(a, b)
        return _sum(-a._numerator, a._exp, *p)

    def __mul__(a, b):
        p = _split(b)
        if p is None:
            return Fraction.__mul__(a, b)
        return _norm(a._numerator * p[0], a._exp + p[1])

    # Addition and multiplication commute, also in Fraction's fallbacks.
    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(a, b):
        p = _split(b)
        if p is not None and _is_pow2(p[0]):
            return _over(a._numerator, a._exp, *p)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(a, b):
        p = _split(b)
        if p is not None and _is_pow2(a._numerator):
            return _over(p[0], p[1], a._numerator, a._exp)
        return Fraction.__rtruediv__(a, b)

    def __neg__(a):
        return _make(-a._numerator, a._exp)

    def __abs__(a):
        return a if a._numerator >= 0 else _make(-a._numerator, a._exp)


def _comparison(op, fallback):
    def compare(a, b):
        p = _split(b)
        if p is None:
            return fallback(a, b)
        e1, e2 = a._exp, p[1]
        # Both numerators over the larger of the two denominators.
        if e1 > e2:
            return op(a._numerator, p[0] << (e1 - e2))
        return op(a._numerator << (e2 - e1), p[0])
    compare.__name__ = fallback.__name__
    return compare


Dyadic.__lt__ = _comparison(operator.lt, Fraction.__lt__)
Dyadic.__le__ = _comparison(operator.le, Fraction.__le__)
Dyadic.__gt__ = _comparison(operator.gt, Fraction.__gt__)
Dyadic.__ge__ = _comparison(operator.ge, Fraction.__ge__)

_new_object = object.__new__


def _make(m: int, e: int) -> Dyadic:
    """m / 2**e, which the caller guarantees is normalised."""
    x = _new_object(Dyadic)
    x._numerator = m
    x._denominator = 1 << e
    x._exp = e
    return x


def _norm(m: int, e: int) -> Dyadic:
    """m / 2**e with the common powers of two cancelled."""
    if e and m:
        z = min((m & -m).bit_length() - 1, e)
        m >>= z
        e -= z
    elif not m:
        e = 0
    return _make(m, e)


def _split(x):
    """(m, e) with x == m / 2**e, or None when x is not a dyadic rational."""
    t = type(x)
    if t is Dyadic:
        return x._numerator, x._exp
    if t is int:
        return x, 0
    if isinstance(x, Fraction):
        d = x._denominator
        if not d & (d - 1):
            return x._numerator, d.bit_length() - 1
    return None


def _sum(m1: int, e1: int, m2: int, e2: int) -> Dyadic:
    # With unequal exponents the finer operand's m is odd and the other
    # term is even, so the sum is already normalised.
    if e1 > e2:
        return _make(m1 + (m2 << (e1 - e2)), e1)
    if e2 > e1:
        return _make((m1 << (e2 - e1)) + m2, e2)
    return _norm(m1 + m2, e1)


def _is_pow2(m: int) -> bool:
    """True when m is +-2**k."""
    m = abs(m)
    return m != 0 and not m & (m - 1)


def _over(m1: int, e1: int, m2: int, e2: int) -> Dyadic:
    """(m1 / 2**e1) / (m2 / 2**e2) for m2 == +-2**k."""
    e = e1 - e2 + abs(m2).bit_length() - 1
    if m2 < 0:
        m1 = -m1
    return _norm(m1, e) if e >= 0 else _make(m1 << -e, 0)


def to_dyadic(x: Fraction) -> Dyadic:
    """The Dyadic equal to a rational whose denominator is a power of two."""
    p = _split(x)
    if p is None:
        raise ValueError(f"{x} is not dyadic")
    return _norm(*p)


def is_dyadic(x: Fraction) -> bool:
    return _split(x) is not None


def parse_dyadic(value) -> Dyadic:
    """``parse_rat`` for a scenario whose every rational is dyadic."""
    return to_dyadic(parse_rat(value))


def u01(rng: random.Random) -> Fraction:
    """Uniform rational from the open interval (0, 1) on the k/2**53 grid."""
    return Fraction(rng.randrange(1, U01_DEN), U01_DEN)


def uniform_closed(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform rational from the closed interval [lo, hi] on a 2**53 grid."""
    if hi < lo:
        raise ValueError("empty interval")
    k = rng.randrange(U01_DEN + 1)
    return lo + (hi - lo) * Fraction(k, U01_DEN)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed for a tuple of labels; platform-independent."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def spawn_rng(*parts) -> random.Random:
    """Fresh RNG derived from labels, e.g. (master_seed, trial, "alg")."""
    return random.Random(derive_seed(*parts))
