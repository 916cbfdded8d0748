import copy
import dataclasses
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_experiments import FEW_TRIALS, _bundled, patch_every_binding

from gathersim import engine, experiments, geometry, rational
from gathersim.cli import bundled_scenario_names, run_experiment
from gathersim.rational import (
    HALF,
    MAX_DIGITS,
    MAX_EXPONENT,
    ONE,
    U01_DEN,
    ZERO,
    Rat,
    derive_seed,
    format_rat,
    grid_point,
    parse_rat,
    rat_sqrt,
    ratio,
    spawn_rng,
    u01,
    uniform_closed,
)


@pytest.mark.parametrize("text,expected", [
    ("1/2", Fraction(1, 2)),
    ("0.125", Fraction(1, 8)),
    ("-3/4", Fraction(-3, 4)),
    ("3", Fraction(3)),
    ("1.2", Fraction(6, 5)),
    ("1e5", Fraction(100000)),
    ("-25e-1", Fraction(-5, 2)),
])
def test_parse_exact(text, expected):
    assert parse_rat(text) == expected


def test_parse_accepts_ints_rejects_floats():
    assert parse_rat(7) == Fraction(7)
    with pytest.raises(ValueError):
        parse_rat(0.1)
    with pytest.raises(ValueError):
        parse_rat("not-a-number")
    with pytest.raises(ValueError):
        parse_rat("1/0")
    with pytest.raises(ValueError):
        parse_rat(True)


def test_parse_caps_digits_and_exponent():
    assert parse_rat(f"1e{MAX_EXPONENT}") == 10 ** MAX_EXPONENT
    assert parse_rat(f"1e-{MAX_EXPONENT}") == Fraction(1, 10 ** MAX_EXPONENT)
    assert parse_rat("7" * MAX_DIGITS).numerator == int("7" * MAX_DIGITS)
    assert parse_rat(10 ** MAX_DIGITS - 1) == 10 ** MAX_DIGITS - 1
    for past in (f"1e{MAX_EXPONENT + 1}", f"1E-{MAX_EXPONENT + 1}",
                 f"2.5e+{MAX_EXPONENT + 1}", "7" * (MAX_DIGITS + 1),
                 "1/" + "3" * MAX_DIGITS, 10 ** MAX_DIGITS, -10 ** MAX_DIGITS):
        with pytest.raises(ValueError):
            parse_rat(past)


def test_format_roundtrip():
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-5)) == "-5"
    assert parse_rat(format_rat(Fraction(22, 7))) == Fraction(22, 7)


def decimal_digits(n: int) -> str:
    """``str(n)`` for any size of int, written 1000 digits at a time, so
    that neither ``str``'s digit limit nor ``Decimal`` is involved."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= 10 ** 1000:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(f"{low:01000d}")
    return sign + str(n) + "".join(reversed(chunks))


@pytest.mark.parametrize("num,den", [
    (3 ** 20000 + 2, 2 ** 30001),  # 9543 and 9032 digits
    (-(10 ** 4300), 1),  # 4301 digits, one past the default limit
    (7 ** 6000, 3),
], ids=["both-long", "integer", "numerator-long"])
def test_format_past_str_digit_limit(num, den):
    # Python refuses str() of an int of more than 4300 digits; a long
    # adaptive run's denominators pass that.
    text = decimal_digits(num) + ("" if den == 1 else f"/{decimal_digits(den)}")
    assert format_rat(Rat(num, den)) == text


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_fraction_canonical(num, den):
    # The scalar type keeps denominators positive and gcd-reduced, and
    # arithmetic stays exact.
    x = Fraction(num, den)
    assert x.denominator > 0
    from math import gcd
    assert gcd(abs(x.numerator), x.denominator) == 1
    assert x + Fraction(1, 3) - Fraction(1, 3) == x


def test_division_by_zero_errors():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_rat_sqrt_exact_and_rejects():
    assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rat_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        rat_sqrt(Fraction(2))
    with pytest.raises(ValueError):
        rat_sqrt(Fraction(-1))


def test_u01_open_interval_and_grid():
    rng = random.Random(7)
    for _ in range(2000):
        x = u01(rng)
        assert 0 < x < 1
        assert (x * U01_DEN).denominator == 1


def test_uniform_closed_bounds():
    rng = random.Random(3)
    lo, hi = Fraction(1, 3), Fraction(5, 3)
    draws = [uniform_closed(rng, lo, hi) for _ in range(500)]
    assert all(lo <= d <= hi for d in draws)
    assert uniform_closed(rng, lo, lo) == lo


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, "alg") == derive_seed(1, 2, "alg")
    assert derive_seed(1, 2, "alg") != derive_seed(1, 2, "adv")
    assert derive_seed(12, "x") != derive_seed(1, "2x")
    a = spawn_rng(5, 0, "alg").random()
    b = spawn_rng(5, 0, "alg").random()
    assert a == b


# ----------------------------------------------------------------------
# Rat: the same values as Fraction, through direct operators

dyadic_fractions = st.builds(lambda m, e: Fraction(m, 2 ** e),
                             st.integers(-2 ** 70, 2 ** 70), st.integers(0, 80))
other_fractions = st.fractions(max_denominator=10 ** 6)
fractions_ = st.one_of(dyadic_fractions, other_fractions)
# adaptive_long's denominators reach about 8 400 bits, and its numerators
# are as long.
WORKLOAD_BITS = 8500
workload_fractions = st.one_of(fractions_, st.builds(
    lambda m, e: Fraction(m, 2 ** e),
    st.integers(-2 ** WORKLOAD_BITS, 2 ** WORKLOAD_BITS),
    st.integers(0, WORKLOAD_BITS) | st.integers(WORKLOAD_BITS - 500, WORKLOAD_BITS)))
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
          operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


def _assert_tagged(x):
    """The tag is the exponent of a power-of-two denominator, else -1."""
    assert type(x) is Rat
    d = x.denominator
    if d & (d - 1) == 0:
        assert x._exp >= 0 and d == 2 ** x._exp
    else:
        assert x._exp == -1


def _assert_same(got, expected):
    assert got == expected
    if isinstance(expected, bool):
        assert type(got) is bool
        return
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert hash(got) == hash(expected)
    try:
        text = str(expected)
    except ValueError:  # past str's digit limit for ints; the parts agree
        return
    assert str(got) == text
    assert format_rat(got) == format_rat(expected)


@settings(max_examples=1000)
@given(workload_fractions, st.data(), st.sampled_from(BINARY), st.booleans())
def test_rat_operations_equal_fraction(x, data, op, swap):
    # The other operand: an int (often with many factors of two, or zero,
    # or +-1), +-2**k (1 included), a dyadic or a non-dyadic rational, or x
    # rounded to a grid of 2**-k, which gives ties (k >= x's exponent) and
    # near-ties across exponents.  Shifts and exponents reach the workload's
    # sizes.  A rational operand is a Rat or, for the fallback, a plain
    # Fraction.
    k_ = st.one_of(st.integers(0, 90), st.integers(0, WORKLOAD_BITS))
    y = data.draw(st.one_of(
        st.builds(operator.lshift, st.integers(-2 ** 20, 2 ** 20), k_),
        st.sampled_from([0, 1, -1]),
        st.builds(lambda sign, k: sign * Fraction(2) ** k,
                  st.sampled_from([1, -1]), st.integers(-90, 90) | k_.map(operator.neg) | k_),
        workload_fractions,
        k_.map(lambda k: Fraction(round(x * 2 ** k), 2 ** k)),
    ))
    plain_y = type(y) is Fraction and data.draw(st.booleans())
    args = (Rat(x), y if type(y) is int or plain_y else Rat(y))
    plain = (x, Fraction(y))
    if swap:
        args, plain = args[::-1], plain[::-1]
    try:
        expected = op(*plain)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(*args)
        return
    got = op(*args)
    _assert_same(got, expected)
    if isinstance(expected, bool):
        return
    if plain_y:  # left to Fraction
        assert type(got) is Fraction
    else:
        _assert_tagged(got)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(7), Fraction(-3, 4), Fraction(5, 6),
                               Fraction(3 ** 5000, 2 ** WORKLOAD_BITS),
                               Fraction(-(3 ** 5000), 5 * 2 ** 400)])
@pytest.mark.parametrize("one", [1, ONE, Rat(1)])
def test_rat_division_by_one(x, one):
    # Dividing by one returns the dividend; one over x is the reciprocal.
    r = Rat(x)
    for got, expected in ((r / one, x), (r / -one, -x)):
        _assert_tagged(got)
        _assert_same(got, expected)
    if x:
        got = one / r
        _assert_tagged(got)
        _assert_same(got, 1 / x)
    if type(one) is Rat:  # x / 1 reflected, from an int dividend
        _assert_same(operator.truediv(int(x), one), Fraction(int(x)))


@given(st.one_of(st.integers(-2 ** 300, 2 ** 300),
                 st.builds(operator.lshift, st.integers(-2 ** 20, 2 ** 20), st.integers(0, 300))),
       st.one_of(st.integers(0, 300).map(lambda e: 1 << e), st.integers(1, 10 ** 30)))
def test_ratio_equals_fraction(n, d):
    # The integer loop's values n / D: a power-of-two D (whose numerators
    # often share many of its factors of two) or any other.
    got = ratio(n, d)
    _assert_tagged(got)
    _assert_same(got, Fraction(n, d))


@pytest.mark.parametrize("zeros", [61, 62, 63, 64, 200])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("e", [3, 300])
def test_dyadic_normalisation_past_the_low_word(zeros, sign, e):
    # Each result's numerator, before lowest terms, is top: exactly
    # ``zeros`` trailing zeros, so its low 62-bit word is 0 from 62 on and
    # the count falls back to the whole numerator.  A negative top's low
    # word is two's complement.  With e = 3 the zeros cancel the whole
    # denominator; with e = 300 they cancel part of it.
    top = sign * 3 ** 40 << zeros
    assert (top & -top).bit_length() - 1 == zeros
    m = 5 ** 30
    x = Fraction(m, 2 ** e)
    cases = [
        (operator.add, x, Fraction(top - m, 2 ** e)),
        (operator.sub, x, Fraction(m - top, 2 ** e)),
        (operator.mul, x, Fraction(top)),
        (operator.mul, x, top),
        (operator.mul, top, x),  # reflected
        (operator.truediv, Fraction(top), 2 ** e),
        (operator.truediv, Fraction(top), Fraction(-2 ** e)),
        (operator.truediv, top, Fraction(2 ** e)),  # reflected
        (operator.add, top, x),  # reflected: exponents differ, no count
        (operator.sub, top, x),
    ]
    for op, a, b in cases:
        got = op(*(v if type(v) is int else Rat(v) for v in (a, b)))
        _assert_tagged(got)
        _assert_same(got, op(Fraction(a), Fraction(b)))


class _Foreign:
    """A numeric type neither Rat nor Fraction knows.  It has reflected
    operators only; each records its name and returns it."""

    def __init__(self):
        self.called = []

    def _record(self, name):
        self.called.append(name)
        return name

    def __radd__(self, other):
        return self._record("__radd__")

    def __rsub__(self, other):
        return self._record("__rsub__")

    def __rmul__(self, other):
        return self._record("__rmul__")

    def __rtruediv__(self, other):
        return self._record("__rtruediv__")

    def __gt__(self, other):
        return self._record("__gt__")

    def __ge__(self, other):
        return self._record("__ge__")

    def __lt__(self, other):
        return self._record("__lt__")

    def __le__(self, other):
        return self._record("__le__")


_RATS = [Rat(3, 4), Rat(5, 6), Rat(7)]


# A value type of its own (say, an affine form in one symbolic draw) can
# mix with Rat only if Rat declines it: Python then calls the foreign
# type's reflected method.
@pytest.mark.parametrize("op,method,reflected", [
    (operator.add, "__add__", "__radd__"),
    (operator.sub, "__sub__", "__rsub__"),
    (operator.mul, "__mul__", "__rmul__"),
    (operator.truediv, "__truediv__", "__rtruediv__"),
    (operator.lt, "__lt__", "__gt__"),
    (operator.le, "__le__", "__ge__"),
    (operator.gt, "__gt__", "__lt__"),
    (operator.ge, "__ge__", "__le__"),
])
@pytest.mark.parametrize("x", _RATS)
def test_rat_leaves_foreign_operands_to_their_type(x, op, method, reflected):
    foreign = _Foreign()
    assert getattr(Rat, method)(x, foreign) is NotImplemented
    assert op(x, foreign) == reflected
    assert foreign.called == [reflected]


@pytest.mark.parametrize("op,method", [
    (operator.add, "__radd__"),
    (operator.sub, "__rsub__"),
    (operator.mul, "__rmul__"),
    (operator.truediv, "__rtruediv__"),
])
@pytest.mark.parametrize("x", _RATS)
def test_rat_reflected_operators_decline_foreign_operands(x, op, method):
    # _Foreign has no forward operator, so Python asks Rat's reflected one,
    # which declines too.
    assert getattr(Rat, method)(x, _Foreign()) is NotImplemented
    with pytest.raises(TypeError):
        op(_Foreign(), x)


@given(fractions_)
def test_rat_unary_and_conversions(x):
    r = Rat(x)
    _assert_tagged(r)
    for op in (operator.neg, abs, operator.pos):
        got = op(r)
        _assert_tagged(got)
        _assert_same(got, op(x))
    _assert_same(r, x)
    _assert_same(Rat(x.numerator, x.denominator), x)
    _assert_same(parse_rat(format_rat(x)), x)
    assert (int(r), float(r), bool(r)) == (int(x), float(x), bool(x))
    # Values reach worker processes pickled.
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        _assert_tagged(twin)
        _assert_same(twin, x)
    assert {r: 1}[x] == 1 and {x: 1}[r] == 1


def test_rat_tag_marks_power_of_two_denominators():
    for x in (ZERO, ONE, HALF, Rat(3, 4), Rat(-6, 8), Rat(5, 6), Rat(7), Rat("0.1"),
              parse_rat("0.125"), parse_rat("3/10"), parse_rat(-4),
              parse_rat(Fraction(9, 64)), parse_rat(Fraction(2, 3)),
              grid_point(0), grid_point(U01_DEN), grid_point(3 << 20),
              rat_sqrt(Fraction(9, 16)), rat_sqrt(Rat(4, 9)),
              u01(random.Random(1)), uniform_closed(random.Random(2), Rat(1, 3), ONE)):
        _assert_tagged(x)
    assert grid_point(U01_DEN) == 1 and grid_point(3 << 20) == Fraction(3, 2 ** 33)
    assert (ONE._exp, HALF._exp, Rat(3, 4)._exp, Rat(5, 6)._exp) == (0, 1, 2, -1)


def test_parse_rat_converts_a_plain_fraction():
    got = parse_rat(Fraction(3, 10))
    assert type(got) is Rat and got == Fraction(3, 10)
    assert parse_rat(got) is got


# Every rational a trial produces, and every rational of the compiled
# scenario it runs, must be a Rat: a plain Fraction falls back to the slow
# operators without any error, so only its type shows it.

def _rationals(obj):
    """Every rational reachable through dataclass fields and containers."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return
    if isinstance(obj, Fraction):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _rationals(key)
            yield from _rationals(value)
    elif isinstance(obj, (list, tuple, set)):
        for value in obj:
            yield from _rationals(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _rationals(getattr(obj, f.name))


def _record_returns(monkeypatch, fns) -> list:
    """Record the result of each call of ``fns`` through every binding."""
    results = []
    for fn in fns:
        def recording(*args, _fn=fn):
            results.append(_fn(*args))
            return results[-1]
        patch_every_binding(monkeypatch, fn, recording)
    return results


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_every_rational_is_rat(monkeypatch, name):
    scn = _bundled(name, FEW_TRIALS.get(name, {}))
    # Every trial outcome and every run's trace, as they are made; lemma1
    # and multirobot also compute through the geometry helpers and rat_sqrt.
    made = _record_returns(monkeypatch, [experiments.run_one_trial, engine.run,
                                         rational.rat_sqrt] + [
        fn for fn in vars(geometry).values()
        if callable(fn) and getattr(fn, "__module__", None) == geometry.__name__])
    run_experiment(scn)
    traces = [x for x in made if isinstance(x, engine.Trace)]
    assert traces
    values = list(_rationals([scn.setups, scn.params, made]
                             + [trace.events for trace in traces]
                             + [run.segments for trace in traces for run in trace.runs.values()]))
    assert [v for v in values if type(v) is not Rat] == []
