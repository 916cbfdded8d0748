"""Exact rational scalars and seeded randomness helpers.

Every continuous quantity in the simulator (time, position, speed, wait,
delay, lambda) is exact.  Scenarios, policies, adversaries, traces and
analysis hold them as ``Rat``s.  The engine's event loop, which runs
every two-robot trial, counts times and positions as ints over one
run-wide denominator D instead, and builds a ``Rat`` (``ratio``) only for
a value a reader asks for or an adversary returns.  Floats
never enter the core: two events either coincide exactly or they do not,
and the gathering predicate is exact collocation.

``Rat`` is the one scalar type of every scenario: a ``fractions.Fraction``
subclass whose arithmetic with another ``Rat`` or an ``int`` reads the
numerators and denominators directly, without ``Fraction``'s operator
dispatch.  Each of ``+ - * /`` (forward and reflected) and the comparisons
is one Python frame: it reads its operand, computes and builds its result
itself, with no helper call.  Each value carries a tag, set once when it
is built: the exponent ``e`` when its denominator is ``2**e``, and -1
otherwise.  Between two tagged (dyadic) values, ``+ - * /`` and the
comparisons are shifts and integer adds with no gcd.
Bringing such a result to lowest terms shifts out the numerator's
trailing zeros, counted on its low machine word (``_LOW``); only a
numerator whose low word is zero is counted whole.
Any other pair takes ``Fraction``'s gcd algorithm.  Every operand of
another type is left to ``Fraction``'s operators: a ``Fraction`` gives a
plain ``Fraction`` of the same value, and a type ``Fraction`` does not
know gets ``NotImplemented``, so Python calls that type's reflected
method.  Values, ``hash``, ``str`` and ``format_rat`` are ``Fraction``'s
own, so reports and traces never depend on the representation.

The scenario parser, the constants below, the uniform draws and every
trial build their values as ``Rat``.  A two-robot run whose scenario
values are not dyadic is counted in a unit K times finer, K odd, in which
they are (``experiments.run_setup``), so with power-of-two speeds and
dyadic lambdas the engine loop's D stays a power of two and the ``Rat``
values built from it take the shift path; its trace's segments are in
that unit, and ``Trace.unit`` is K.

Every integer a policy, an adversary or a uniform draw takes comes from
``below(rng, n)``, which reads ``k = n.bit_length()`` bits from
``rng.getrandbits`` and redraws while the value is ``>= n``: the rule of
CPython's ``random.Random.randrange(n)``.  The streams are the ones
``randrange`` gave, and they depend only on ``getrandbits``.  The bounds
2**53 (``TauBounded``'s drawn sum) and 2**53 + 1 (a point of the closed
grid) are 54 bits wide, so their draws take 54-bit words and redraw
about half of them.
"""

from __future__ import annotations

import hashlib
import operator
import random
from decimal import Decimal
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

# The low word of a numerator, which holds its trailing zeros unless it is
# 0; ``n & _LOW`` is a machine-word int, where ``n & -n`` builds two ints as
# wide as n.  For n < 0 it is the two's complement word, whose trailing
# zeros are those of n.
_LOW = (1 << 62) - 1


class Rat(Fraction):
    """An exact rational in lowest terms, tagged with ``_exp``.

    ``_exp`` is e when the denominator is 2**e and -1 otherwise.  ``+ - *
    /``, the comparisons, ``==``, ``-x``, ``+x`` and ``abs`` give a ``Rat``
    (or a bool) when the other operand is a ``Rat`` or an ``int``; any
    other operand is left to ``Fraction``, which returns ``NotImplemented``
    for a type it does not know.
    """

    __slots__ = ("_exp",)

    def __new__(cls, numerator=0, denominator=None):
        self = Fraction.__new__(cls, numerator, denominator)
        self._exp = _tag(self._denominator)
        return self

    def __mul__(a, b):
        t = type(b)
        if t is Rat:
            nb, db, eb = b._numerator, b._denominator, b._exp
        elif t is int:
            nb, db, eb = b, 1, 0
        else:
            return Fraction.__mul__(a, b)
        na, da, ea = a._numerator, a._denominator, a._exp
        if ea >= 0 and eb >= 0:
            n, e = na * nb, ea + eb
            if not n:
                e = 0
            elif e:  # an integer factor may cancel powers of two
                low = n & _LOW
                if not low & 1:
                    z = min((low & -low if low else n & -n).bit_length() - 1, e)
                    n >>= z
                    e -= z
            d = 1 << e
        else:  # Fraction's algorithm
            g1 = gcd(na, db)
            if g1 > 1:
                na //= g1
                db //= g1
            g2 = gcd(nb, da)
            if g2 > 1:
                nb //= g2
                da //= g2
            n, d = na * nb, db * da
            e = d.bit_length() - 1 if not d & (d - 1) else -1
        x = _new_object(Rat)
        x._numerator, x._denominator, x._exp = n, d, e
        return x

    # Multiplication commutes, also in Fraction's fallback.
    __rmul__ = __mul__

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


# Each operator below reads its operand, computes and builds its result in
# its own frame, as ``__mul__`` does: a run makes dozens of operations per
# look, so helper frames would cost a measurable share of it.  The operand
# is read as in ``_comparison``: a Rat or an int directly, anything else
# by ``fallback``.

def _additive(negate, reflected, fallback):
    """a + b, a - b (``negate``) or b - a (``negate`` and ``reflected``)."""
    def op(a, b):
        t = type(b)
        if t is Rat:
            nb, db, eb = b._numerator, b._denominator, b._exp
        elif t is int:
            nb, db, eb = b, 1, 0
        else:
            return fallback(a, b)
        na, da, ea = a._numerator, a._denominator, a._exp
        if reflected:
            na, da, ea, nb, db, eb = nb, db, eb, na, da, ea
        if negate:
            nb = -nb
        if ea >= 0 and eb >= 0:
            # With unequal exponents the finer operand's numerator is odd
            # and the other term even, so the sum is in lowest terms.
            if ea > eb:
                n, d, e = na + (nb << (ea - eb)), da, ea
            elif eb > ea:
                n, d, e = (na << (eb - ea)) + nb, db, eb
            else:
                n, e = na + nb, ea
                if not n:
                    e = 0
                elif e:
                    low = n & _LOW
                    if not low & 1:
                        z = min((low & -low if low else n & -n).bit_length() - 1, e)
                        n >>= z
                        e -= z
                d = 1 << e
        else:  # Fraction's algorithm
            g = gcd(da, db)
            if g == 1:
                n, d = na * db + da * nb, da * db
            else:
                s = da // g
                n = na * (db // g) + nb * s
                g2 = gcd(n, g)
                if g2 == 1:
                    d = s * db
                else:
                    n //= g2
                    d = s * (db // g2)
            e = d.bit_length() - 1 if not d & (d - 1) else -1
        x = _new_object(Rat)
        x._numerator, x._denominator, x._exp = n, d, e
        return x
    op.__name__ = fallback.__name__
    return op


def _quotient(reflected, fallback):
    """a / b, or b / a when ``reflected``."""
    def op(a, b):
        t = type(b)
        if t is Rat:
            nb, db, eb = b._numerator, b._denominator, b._exp
        elif t is int:
            nb, db, eb = b, 1, 0
        else:
            return fallback(a, b)
        na, da, ea = a._numerator, a._denominator, a._exp
        if reflected:
            na, da, ea, nb, db, eb = nb, db, eb, na, da, ea
        if ea >= 0 and eb >= 0 and nb and not (abs(nb) & (abs(nb) - 1)):
            # A divisor +-2**k over 2**eb: the quotient is +-na over
            # 2**(ea - eb + k), no gcd.
            n = na if nb > 0 else -na
            e = ea - eb + abs(nb).bit_length() - 1
            if e < 0:
                n, e = n << -e, 0
            elif not n:
                e = 0
            elif e:
                low = n & _LOW
                if not low & 1:
                    z = min((low & -low if low else n & -n).bit_length() - 1, e)
                    n >>= z
                    e -= z
            d = 1 << e
        else:  # Fraction's algorithm
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
            e = d.bit_length() - 1 if not d & (d - 1) else -1
        x = _new_object(Rat)
        x._numerator, x._denominator, x._exp = n, d, e
        return x
    op.__name__ = fallback.__name__
    return op


Rat.__add__ = Rat.__radd__ = _additive(False, False, Fraction.__add__)
Rat.__sub__ = _additive(True, False, Fraction.__sub__)
Rat.__rsub__ = _additive(True, True, Fraction.__rsub__)
Rat.__truediv__ = _quotient(False, Fraction.__truediv__)
Rat.__rtruediv__ = _quotient(True, Fraction.__rtruediv__)


def _comparison(op, fallback):
    def compare(a, b):
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


def ratio(n: int, d: int) -> Rat:
    """n / d in lowest terms, for ints n and d > 0.

    A power-of-two d loses the trailing zeros n shares with it, counted
    as in ``__mul__``; any other d is divided by its gcd with n."""
    if not d & (d - 1):
        if not n:
            return ZERO
        e = d.bit_length() - 1
        low = n & _LOW
        z = min((low & -low if low else n & -n).bit_length() - 1, e)
        return _make(n >> z, d >> z, e - z)
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return _make(n, d, _tag(d))


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
    """Serialize as "p/q", or plain "p" for integers.

    ``Decimal`` writes the digits of an int past ``str``'s limit (4300
    digits by default), which a long adaptive run's denominators pass.
    The fields are read directly: ``Fraction``'s properties cost twice as
    much, at several hundred calls per trace."""
    n, d = x._numerator, x._denominator
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        num, den = Decimal(n), Decimal(d)
        return str(num) if den == 1 else f"{num}/{den}"


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
    if not k:
        return ZERO
    z = min((k & -k).bit_length() - 1, U01_BITS)
    return _make(k >> z, 1 << (U01_BITS - z), U01_BITS - z)


def below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n): ``n.bit_length()`` bits from
    ``rng.getrandbits``, redrawn while the value is ``>= n``.

    That is CPython's ``_randbelow_with_getrandbits``, so it returns what
    ``rng.randrange(n)`` returns and leaves the generator in the same state,
    in one Python frame instead of two.  As ``randrange`` does, it raises
    ValueError for n <= 0, checked only on a redraw, which every such n
    makes and would otherwise repeat forever.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        if n <= 0:
            raise ValueError(f"empty range for below({n})")
        r = rng.getrandbits(k)
    return r


def u01(rng: random.Random) -> Rat:
    """Uniform rational from the open interval (0, 1) on the k/2**53 grid."""
    return grid_point(1 + below(rng, U01_DEN - 1))


def uniform_closed(rng: random.Random, lo: Rat, hi: Rat) -> Rat:
    """Uniform rational from the closed interval [lo, hi] on a 2**53 grid."""
    if hi < lo:
        raise ValueError("empty interval")
    return lo + (hi - lo) * grid_point(below(rng, U01_DEN + 1))


def derive_seed(*parts) -> int:
    """Stable 64-bit seed for a tuple of labels; platform-independent."""
    text = "/".join(map(str, parts))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def spawn_rng(*parts) -> random.Random:
    """Fresh RNG derived from labels, e.g. (master_seed, trial, "alg")."""
    return random.Random(derive_seed(*parts))
