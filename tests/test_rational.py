import dataclasses
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gathersim import experiments
from gathersim.cli import bundled_scenario_path, parse_scenario
from gathersim.rational import (
    MAX_DIGITS,
    MAX_EXPONENT,
    U01_DEN,
    Dyadic,
    derive_seed,
    format_rat,
    is_dyadic,
    parse_dyadic,
    parse_rat,
    rat_sqrt,
    spawn_rng,
    to_dyadic,
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
# Dyadic: the same values as Fraction, without gcd

dyadic_fractions = st.builds(lambda m, e: Fraction(m, 2 ** e),
                             st.integers(-2 ** 70, 2 ** 70), st.integers(0, 80))
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
          operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


def _power_of_two(v):
    n = abs(v.numerator)
    return is_dyadic(v) and n & (n - 1) == 0


def _assert_same(got, expected):
    assert got == expected
    if isinstance(expected, bool):
        assert type(got) is bool
        return
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    assert hash(got) == hash(expected)
    assert format_rat(got) == format_rat(expected)


@settings(max_examples=1000)
@given(dyadic_fractions, st.data(), st.sampled_from(BINARY), st.booleans())
def test_dyadic_operations_equal_fraction(x, data, op, swap):
    # The other operand: an int (often with many factors of two), +-2**k,
    # a dyadic or a non-dyadic Fraction, or x rounded to a grid of 2**-k,
    # which gives ties (k >= x's exponent) and near-ties across exponents.
    y = data.draw(st.one_of(
        st.builds(operator.lshift, st.integers(-2 ** 20, 2 ** 20), st.integers(0, 90)),
        st.builds(lambda sign, k: sign * Fraction(2) ** k,
                  st.sampled_from([1, -1]), st.integers(-90, 90)),
        dyadic_fractions,
        st.fractions(max_denominator=10 ** 6),
        st.integers(0, 90).map(lambda k: Fraction(round(x * 2 ** k), 2 ** k)),
    ))
    y_dyadic = type(y) is Fraction and is_dyadic(y) and data.draw(st.booleans())
    args = (to_dyadic(x), to_dyadic(y) if y_dyadic else y)
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
    # Only a division by anything but +-2**k leaves the dyadic rationals.
    stays = is_dyadic(y) and (op is not operator.truediv or _power_of_two(plain[1]))
    assert isinstance(got, Dyadic) == stays


@given(dyadic_fractions)
def test_dyadic_unary_and_conversions(x):
    d = to_dyadic(x)
    for op in (operator.neg, abs):
        got = op(d)
        assert type(got) is Dyadic
        _assert_same(got, op(x))
    _assert_same(Dyadic(x.numerator, x.denominator), x)
    _assert_same(parse_dyadic(format_rat(x)), x)
    assert (int(d), float(d), bool(d)) == (int(x), float(x), bool(x))


def test_dyadic_rejects_other_denominators():
    with pytest.raises(ValueError):
        to_dyadic(Fraction(1, 3))
    with pytest.raises(ValueError):
        Dyadic(5, 6)
    with pytest.raises(ValueError):
        parse_dyadic("0.1")


def _trace_scalars(trace):
    for event in trace.events:
        yield event.time
        for value in event.payload.values():
            yield from value if isinstance(value, tuple) else (value,)
    for run in trace.runs.values():
        yield from (run.spec.start, run.spec.speed, run.horizon)
        for seg in run.segments:
            yield from dataclasses.astuple(seg)


def _bundled_trial(name):
    raw = json.loads(bundled_scenario_path(name).read_text())
    raw["trials"] = 2
    scn = parse_scenario(json.dumps(raw))
    return scn, experiments.run_one_trial(scn, 1).trace


def test_scalar_type_is_chosen_per_scenario():
    scn, trace = _bundled_trial("thm1_positive")  # 3/10-style schedule values
    assert not scn.dyadic
    assert not any(isinstance(v, Dyadic) for v in _trace_scalars(trace))
    scn, trace = _bundled_trial("thm5_4")
    assert scn.dyadic
    assert type(trace.events[-1].time) is Dyadic
