"""Exact rational scalars and seeded randomness helpers.

Every continuous quantity in the simulator (time, position, speed, wait,
delay, lambda) is an exact rational, a ``Rat``.  Floats never enter the
core: two events either coincide exactly or they do not, and the gathering
predicate is exact collocation.

``Rat`` is the one scalar type of every scenario: a ``fractions.Fraction``
subclass whose arithmetic with another ``Rat`` or an ``int`` reads the
numerators and denominators directly, without ``Fraction``'s operator
dispatch.  Each value carries a tag, set once when it is built: the
exponent ``e`` when its denominator is ``2**e``, and -1 otherwise.  Between
two tagged (dyadic) values, ``+ - * /`` and the comparisons are shifts and
integer adds with no gcd, which keeps long adaptive runs fast: their
denominators grow by about 20 bits per look.  Any other pair takes
``Fraction``'s gcd algorithm.  Every operand of another type is left to
``Fraction``, whose result is a plain ``Fraction`` of the same value.
Values, ``hash``, ``str`` and ``format_rat`` are ``Fraction``'s own, so
reports and traces never depend on the representation.

The scenario parser, the constants below, the uniform draws and every
trial build their values as ``Rat``.
"""

from __future__ import annotations

import hashlib
import operator
import random
from fractions import Fraction
from math import gcd, isqrt

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


class Rat(Fraction):
    """An exact rational in lowest terms, tagged with ``_exp``.

    ``_exp`` is e when the denominator is 2**e and -1 otherwise.  ``+ - *
    /``, the comparisons, ``==``, ``-x``, ``+x`` and ``abs`` give a ``Rat``
    (or a bool) when the other operand is a ``Rat`` or an ``int``; any
    other operand is left to ``Fraction``.
    """

    __slots__ = ("_exp",)

    def __new__(cls, numerator=0, denominator=None):
        self = Fraction.__new__(cls, numerator, denominator)
        self._exp = _tag(self._denominator)
        return self

    def __add__(a, b):
        p = _operand(b)
        if p is None:
            return Fraction.__add__(a, b)
        nb, db, eb = p
        if a._exp >= 0 and eb >= 0:
            return _dyadic_sum(a._numerator, a._denominator, a._exp, nb, db, eb)
        return _sum(a._numerator, a._denominator, nb, db)

    def __sub__(a, b):
        p = _operand(b)
        if p is None:
            return Fraction.__sub__(a, b)
        nb, db, eb = p
        if a._exp >= 0 and eb >= 0:
            return _dyadic_sum(a._numerator, a._denominator, a._exp, -nb, db, eb)
        return _sum(a._numerator, a._denominator, -nb, db)

    def __rsub__(a, b):
        p = _operand(b)
        if p is None:
            return Fraction.__rsub__(a, b)
        nb, db, eb = p
        if a._exp >= 0 and eb >= 0:
            return _dyadic_sum(-a._numerator, a._denominator, a._exp, nb, db, eb)
        return _sum(nb, db, -a._numerator, a._denominator)

    def __mul__(a, b):
        p = _operand(b)
        if p is None:
            return Fraction.__mul__(a, b)
        nb, db, eb = p
        if a._exp >= 0 and eb >= 0:
            return _dyadic(a._numerator * nb, a._exp + eb)
        return _product(a._numerator, a._denominator, nb, db)

    # Addition and multiplication commute, also in Fraction's fallbacks.
    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(a, b):
        p = _operand(b)
        if p is None:
            return Fraction.__truediv__(a, b)
        nb, db, eb = p
        if a._exp >= 0 and eb >= 0 and _is_pow2(nb):
            return _dyadic_over(a._numerator, a._exp, nb, eb)
        return _quotient(a._numerator, a._denominator, nb, db)

    def __rtruediv__(a, b):
        p = _operand(b)
        if p is None:
            return Fraction.__rtruediv__(a, b)
        nb, db, eb = p
        if a._exp >= 0 and eb >= 0 and _is_pow2(a._numerator):
            return _dyadic_over(nb, eb, a._numerator, a._exp)
        return _quotient(nb, db, a._numerator, a._denominator)

    def __eq__(a, b):
        t = type(b)
        if t is Rat:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    # Defining __eq__ would otherwise leave the class unhashable.
    __hash__ = Fraction.__hash__

    def __neg__(a):
        return _make(-a._numerator, a._denominator, a._exp)

    def __abs__(a):
        return a if a._numerator >= 0 else _make(-a._numerator, a._denominator, a._exp)

    def __pos__(a):
        return a


def _comparison(op, fallback):
    def compare(a, b):
        # _operand, inlined: comparisons are the most frequent operations.
        t = type(b)
        if t is Rat:
            nb, db, eb = b._numerator, b._denominator, b._exp
        elif t is int:
            nb, db, eb = b, 1, 0
        else:
            return fallback(a, b)
        ea = a._exp
        if ea >= 0 and eb >= 0:
            # Both numerators over the larger of the two denominators.
            if ea > eb:
                return op(a._numerator, nb << (ea - eb))
            return op(a._numerator << (eb - ea), nb)
        return op(a._numerator * db, a._denominator * nb)
    compare.__name__ = fallback.__name__
    return compare


Rat.__lt__ = _comparison(operator.lt, Fraction.__lt__)
Rat.__le__ = _comparison(operator.le, Fraction.__le__)
Rat.__gt__ = _comparison(operator.gt, Fraction.__gt__)
Rat.__ge__ = _comparison(operator.ge, Fraction.__ge__)

_new_object = object.__new__


def _tag(d: int) -> int:
    """e when d == 2**e, else -1."""
    return d.bit_length() - 1 if not d & (d - 1) else -1


def _make(n: int, d: int, e: int) -> Rat:
    """n / d with tag e, which the caller guarantees are in lowest terms."""
    x = _new_object(Rat)
    x._numerator = n
    x._denominator = d
    x._exp = e
    return x


def _coprime(n: int, d: int) -> Rat:
    """n / d for coprime n and d > 0, tagged."""
    return _make(n, d, _tag(d))


def _operand(b):
    """(numerator, denominator, tag) of a Rat or an int; None otherwise."""
    t = type(b)
    if t is Rat:
        return b._numerator, b._denominator, b._exp
    if t is int:
        return b, 1, 0
    return None


# Fraction's own algorithms, on integer parts.

def _sum(na: int, da: int, nb: int, db: int) -> Rat:
    g = gcd(da, db)
    if g == 1:
        return _coprime(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _coprime(t, s * db)
    return _coprime(t // g2, s * (db // g2))


def _product(na: int, da: int, nb: int, db: int) -> Rat:
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _coprime(na * nb, db * da)


def _quotient(na: int, da: int, nb: int, db: int) -> Rat:
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na * db}, 0)")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    return _coprime(n, d)


# Shifts and adds on m / 2**e, never a gcd.

def _dyadic(m: int, e: int) -> Rat:
    """m / 2**e with the common powers of two cancelled."""
    if e and m:
        z = min((m & -m).bit_length() - 1, e)
        m >>= z
        e -= z
    elif not m:
        e = 0
    return _make(m, 1 << e, e)


def _dyadic_sum(m1: int, d1: int, e1: int, m2: int, d2: int, e2: int) -> Rat:
    # With unequal exponents the finer operand's m is odd and the other
    # term is even, so the sum is already in lowest terms.
    if e1 > e2:
        return _make(m1 + (m2 << (e1 - e2)), d1, e1)
    if e2 > e1:
        return _make((m1 << (e2 - e1)) + m2, d2, e2)
    return _dyadic(m1 + m2, e1)


def _is_pow2(m: int) -> bool:
    """True when m is +-2**k."""
    m = abs(m)
    return m != 0 and not m & (m - 1)


def _dyadic_over(m1: int, e1: int, m2: int, e2: int) -> Rat:
    """(m1 / 2**e1) / (m2 / 2**e2) for m2 == +-2**k."""
    e = e1 - e2 + abs(m2).bit_length() - 1
    if m2 < 0:
        m1 = -m1
    return _dyadic(m1, e) if e >= 0 else _make(m1 << -e, 1, 0)


ZERO = _make(0, 1, 0)
ONE = _make(1, 1, 0)
HALF = _make(1, 2, 1)


def parse_rat(value) -> Rat:
    """Parse an exact rational from an int or a "p/q" / decimal string.

    Floats are rejected on purpose: scenario files must carry exact values.
    Inputs past ``MAX_DIGITS`` digits or ``MAX_EXPONENT`` are rejected.  A
    ``Fraction`` is converted to the ``Rat`` of the same value.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        if abs(value) >= _INT_LIMIT:
            raise ValueError(f"integer has more than {MAX_DIGITS} digits")
        return _make(value, 1, 0)
    if isinstance(value, Fraction):
        return value if type(value) is Rat else _coprime(value.numerator, value.denominator)
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_DIGITS and sum(map(str.isdigit, text)) > MAX_DIGITS:
            raise ValueError(f"rational has more than {MAX_DIGITS} digits")
        if "e" in text or "E" in text:
            exp = text.lower().rpartition("e")[2].replace("_", "").lstrip("+-")
            if exp.isdecimal() and int(exp) > MAX_EXPONENT:
                raise ValueError(f"exponent of {value!r} is beyond +-{MAX_EXPONENT}")
        try:
            return Rat(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r} (use a string like '3/4' or '0.25')")


def format_rat(x: Fraction) -> str:
    """Serialize as "p/q", or plain "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_sqrt(x: Fraction) -> Rat:
    """Exact square root of a perfect rational square.

    Raises ValueError when x is negative or has no rational root.
    """
    if x < 0:
        raise ValueError(f"square root of negative rational {x}")
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise ValueError(f"{x} is not a perfect rational square")
    return _coprime(rn, rd)


def grid_point(k: int) -> Rat:
    """k / 2**53, the k-th point of the uniform draws' grid (no gcd)."""
    return _dyadic(k, U01_BITS)


def u01(rng: random.Random) -> Rat:
    """Uniform rational from the open interval (0, 1) on the k/2**53 grid."""
    return grid_point(rng.randrange(1, U01_DEN))


def uniform_closed(rng: random.Random, lo: Rat, hi: Rat) -> Rat:
    """Uniform rational from the closed interval [lo, hi] on a 2**53 grid."""
    if hi < lo:
        raise ValueError("empty interval")
    k = rng.randrange(U01_DEN + 1)
    return lo + (hi - lo) * grid_point(k)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed for a tuple of labels; platform-independent."""
    text = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def spawn_rng(*parts) -> random.Random:
    """Fresh RNG derived from labels, e.g. (master_seed, trial, "alg")."""
    return random.Random(derive_seed(*parts))
