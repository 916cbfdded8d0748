import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gathersim import policies
from gathersim.policies import (
    TAU_TRIPLE,
    THREE_CHOICE,
    Deterministic,
    Mixture,
    NoCatchupError,
    Oracle,
    OracleScriptExhausted,
    PolicyError,
    OPPOSITE_DIRECTIONS,
    SAME_DIRECTION,
    destination,
    gather_lambda_oracle,
    known_alpha,
    policy_from_descriptor,
)
from gathersim.rational import HALF, ONE, Rat

rats = st.fractions(min_value=-8, max_value=8, max_denominator=64)


@pytest.mark.parametrize("own,other,lam,expected", [
    (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 2)),
    (Fraction(0), Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
    # Moves with lambda outside [0, 1] are legal.
    (Fraction(0), Fraction(1), Fraction(2), Fraction(2)),
    (Fraction(0), Fraction(1), Fraction(-1), Fraction(-1)),
])
def test_destination_values(own, other, lam, expected):
    assert destination(own, other, lam) == expected


@given(rats, rats, rats)
def test_destination_symmetric_about_midpoint(a, b, lam):
    assert destination(a, b, lam) + destination(b, a, lam) == a + b


# Positions with a power-of-two denominator (tagged) and with another one.
_dyadic = st.builds(lambda n, e: Rat(n, 1 << e), st.integers(-2 ** 70, 2 ** 70),
                    st.integers(0, 80))
_non_dyadic = st.builds(Rat, st.integers(-2 ** 70, 2 ** 70),
                        st.integers(1, 10 ** 9)).filter(lambda x: x._exp < 0)
_positions = st.one_of(_dyadic, _non_dyadic)
# A freshly built Rat(1) is equal to ONE but not the same object.
_lambdas = st.one_of(st.sampled_from([Rat(0), HALF, ONE]), st.builds(Rat, st.just(1)),
                     _positions)


@given(_positions, _positions, _lambdas)
@example(Rat(1, 3), Rat(3, 4), ONE)
@example(Rat(3, 4), Rat(1, 3), Rat(1))
@example(Rat(-5, 8), Rat(7, 10), Rat(1, 2))
def test_destination_equals_the_formula(own, obs, lam):
    expected = own + lam * (obs - own)
    got = destination(own, obs, lam)
    assert type(got) is Rat
    assert (got._numerator, got._denominator, got._exp) == (
        expected._numerator, expected._denominator, expected._exp)


def test_deterministic_always_same():
    pol = Deterministic(Fraction(1, 2))
    rng = random.Random(0)
    assert all(pol.sample(rng, cycle) == Fraction(1, 2) for cycle in range(20))


def test_oracle_sequence_and_exhaustion():
    pol = Oracle([Fraction(1), Fraction(0), Fraction(3, 4)])
    rng = random.Random(0)
    assert [pol.sample(rng, cycle) for cycle in range(3)] == [1, 0, Fraction(3, 4)]
    with pytest.raises(OracleScriptExhausted):
        pol.sample(rng, 3)


def test_three_choice_frequency_of_one():
    # lambda = 1 should appear a third of the time, within 3 sigma.
    n = 300_000
    rng = random.Random(42)
    pol = THREE_CHOICE
    ones = sum(pol.sample(rng, cycle) == 1 for cycle in range(n))
    p = 1 / 3
    assert abs(ones / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_three_choice_uniform_branch_in_open_interval():
    rng = random.Random(1)
    pol = THREE_CHOICE
    draws = [pol.sample(rng, cycle) for cycle in range(3000)]
    assert all(0 < d <= 1 for d in draws)
    assert any(d not in (Fraction(1), Fraction(1, 2)) for d in draws)


def test_tau_triple_chi_square():
    # Goodness of fit at significance 0.001 (df=2 critical value 13.8155).
    n = 100_000
    rng = random.Random(2024)
    pol = TAU_TRIPLE
    counts = {Fraction(1): 0, Fraction(1, 2): 0, Fraction(0): 0}
    for cycle in range(n):
        counts[pol.sample(rng, cycle)] += 1
    expected = n / 3
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 13.8155


def test_finite_mixture_chi_square_and_validation():
    choices = [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 3)),
               (Fraction(2), Fraction(1, 6))]
    pol = Mixture(choices)
    rng = random.Random(9)
    n = 100_000
    counts = {lam: 0 for lam, _ in choices}
    for cycle in range(n):
        counts[pol.sample(rng, cycle)] += 1
    chi2 = sum((counts[lam] - n * p) ** 2 / (n * p) for lam, p in choices)
    assert chi2 < 13.8155  # df=2
    with pytest.raises(PolicyError):
        Mixture([(Fraction(1), Fraction(1, 2))])
    with pytest.raises(PolicyError):
        Mixture([(Fraction(1), Fraction(3, 2)), (Fraction(0), Fraction(-1, 2))])
    with pytest.raises(PolicyError):  # a uniform branch takes probability too
        Mixture([(Fraction(1), Fraction(1))], Rat(1, 2))
    with pytest.raises(PolicyError):
        Mixture([(Fraction(1), Fraction(3, 2))], Rat(-1, 2))


def test_known_alpha_support():
    pol = known_alpha(Fraction(2))
    assert [lam for lam, _ in pol.choices] == [Fraction(1, 3), Fraction(2, 3), Fraction(1)]
    assert pol.uniform == Fraction(1, 4)
    rng = random.Random(5)
    draws = {pol.sample(rng, cycle) for cycle in range(500)}
    assert Fraction(1, 3) in draws and Fraction(2, 3) in draws and Fraction(1) in draws


def test_known_alpha_custom_weights():
    weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
    pol = known_alpha(Fraction(2), weights)
    rng = random.Random(8)
    n = 40_000
    lo_hits = sum(pol.sample(rng, cycle) == Fraction(1, 3) for cycle in range(n))
    assert abs(lo_hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)
    desc = {"kind": "KNOWN_ALPHA", "alpha": "2", "weights": ["1/2", "1/4", "1/8", "1/8"]}
    assert policy_from_descriptor(desc) == pol
    assert policy_from_descriptor({"kind": "KNOWN_ALPHA", "alpha": "2"}) != pol
    with pytest.raises(PolicyError):
        known_alpha(Fraction(2), (Fraction(1), Fraction(1), Fraction(1), Fraction(1)))


def _fixed_draw(monkeypatch, k):
    """Make the mixtures' draw ``below(rng, n)`` return ``k``; the returned
    list records each ``n``."""
    bounds = []

    def draw(rng, n):
        bounds.append(n)
        return k

    monkeypatch.setattr(policies, "below", draw)
    return bounds


def test_mixtures_draw_on_the_common_denominator(monkeypatch):
    # Weights 1/3, 1/6, 1/2 lie on a grid of 6 with running sums 2, 3, 6.
    mixture = Mixture([(Fraction(7), Fraction(1, 3)), (Fraction(8), Fraction(1, 6)),
                       (Fraction(9), Fraction(1, 2))])
    expected = [7, 7, 8, 9, 9, 9]
    for k, lam in enumerate(expected):
        bounds = _fixed_draw(monkeypatch, k)
        assert mixture.sample(random.Random(0), 0) == lam and bounds == [6]
    # Weights 1/2, 1/4, 1/8, 1/8 lie on a grid of 8 with running sums 4, 6, 7, 8.
    alpha = known_alpha(Fraction(2), (Fraction(1, 2), Fraction(1, 4),
                                      Fraction(1, 8), Fraction(1, 8)))
    expected = [Fraction(1, 3)] * 4 + [Fraction(2, 3)] * 2 + [Fraction(1)]
    for k, lam in enumerate(expected):
        bounds = _fixed_draw(monkeypatch, k)
        assert alpha.sample(random.Random(0), 0) == lam and bounds == [8]


@pytest.mark.parametrize("alpha,geometry,expected", [
    (Fraction(1), OPPOSITE_DIRECTIONS, Fraction(1, 2)),
    (Fraction(3), SAME_DIRECTION, Fraction(1, 2)),
    (Fraction(2), OPPOSITE_DIRECTIONS, Fraction(1, 3)),
    (Fraction(5, 3), OPPOSITE_DIRECTIONS, Fraction(3, 8)),
    (Fraction(5, 3), SAME_DIRECTION, Fraction(3, 2)),
])
def test_gather_lambda_oracle_values(alpha, geometry, expected):
    assert gather_lambda_oracle(alpha, geometry) == expected


def test_gather_lambda_oracle_no_catchup():
    with pytest.raises(NoCatchupError):
        gather_lambda_oracle(Fraction(1), SAME_DIRECTION)


def test_policy_descriptor_roundtrip():
    # Each kind's descriptor, as a scenario file writes it, builds the
    # policy it describes.
    cases = [
        ({"kind": "DETERMINISTIC", "lam": "1/2"}, Deterministic(Fraction(1, 2))),
        ({"kind": "FINITE_MIXTURE", "choices": [["0", "1/2"], ["1", "1/2"]]},
         Mixture(((Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))))),
        ({"kind": "THREE_CHOICE"}, THREE_CHOICE),
        ({"kind": "TAU_TRIPLE"}, TAU_TRIPLE),
        ({"kind": "KNOWN_ALPHA", "alpha": "3/2"}, known_alpha(Fraction(3, 2))),
        ({"kind": "ORACLE", "script": ["1", "-1/4"]},
         Oracle([Fraction(1), Fraction(-1, 4)])),
    ]
    for desc, built in cases:
        assert policy_from_descriptor(desc) == built
