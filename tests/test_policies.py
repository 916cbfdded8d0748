import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
from gathersim.rational import Rat

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


def test_deterministic_always_same():
    pol = Deterministic(Fraction(1, 2))
    rng = random.Random(0)
    assert all(pol.sample(rng) == Fraction(1, 2) for _ in range(20))


def test_oracle_sequence_and_exhaustion():
    pol = Oracle([Fraction(1), Fraction(0), Fraction(3, 4)])
    rng = random.Random(0)
    assert [pol.sample(rng) for _ in range(3)] == [1, 0, Fraction(3, 4)]
    with pytest.raises(OracleScriptExhausted):
        pol.sample(rng)


def test_three_choice_frequency_of_one():
    # lambda = 1 should appear a third of the time, within 3 sigma.
    n = 300_000
    rng = random.Random(42)
    pol = THREE_CHOICE
    ones = sum(pol.sample(rng) == 1 for _ in range(n))
    p = 1 / 3
    assert abs(ones / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_three_choice_uniform_branch_in_open_interval():
    rng = random.Random(1)
    pol = THREE_CHOICE
    draws = [pol.sample(rng) for _ in range(3000)]
    assert all(0 < d <= 1 for d in draws)
    assert any(d not in (Fraction(1), Fraction(1, 2)) for d in draws)


def test_tau_triple_chi_square():
    # Goodness of fit at significance 0.001 (df=2 critical value 13.8155).
    n = 100_000
    rng = random.Random(2024)
    pol = TAU_TRIPLE
    counts = {Fraction(1): 0, Fraction(1, 2): 0, Fraction(0): 0}
    for _ in range(n):
        counts[pol.sample(rng)] += 1
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
    for _ in range(n):
        counts[pol.sample(rng)] += 1
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
    draws = {pol.sample(rng) for _ in range(500)}
    assert Fraction(1, 3) in draws and Fraction(2, 3) in draws and Fraction(1) in draws


def test_known_alpha_custom_weights():
    weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
    pol = known_alpha(Fraction(2), weights)
    rng = random.Random(8)
    n = 40_000
    lo_hits = sum(pol.sample(rng) == Fraction(1, 3) for _ in range(n))
    assert abs(lo_hits / n - 0.5) <= 3 * math.sqrt(0.25 / n)
    desc = {"kind": "KNOWN_ALPHA", "alpha": "2", "weights": ["1/2", "1/4", "1/8", "1/8"]}
    assert policy_from_descriptor(desc) == pol
    assert policy_from_descriptor({"kind": "KNOWN_ALPHA", "alpha": "2"}) != pol
    with pytest.raises(PolicyError):
        known_alpha(Fraction(2), (Fraction(1), Fraction(1), Fraction(1), Fraction(1)))


class _FixedDraw:
    """An rng whose ``randrange(n)`` returns ``k``, recording each ``n``."""

    def __init__(self, k):
        self.k = k
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return self.k


def test_mixtures_draw_on_the_common_denominator():
    # Weights 1/3, 1/6, 1/2 lie on a grid of 6 with running sums 2, 3, 6.
    mixture = Mixture([(Fraction(7), Fraction(1, 3)), (Fraction(8), Fraction(1, 6)),
                       (Fraction(9), Fraction(1, 2))])
    expected = [7, 7, 8, 9, 9, 9]
    for k, lam in enumerate(expected):
        rng = _FixedDraw(k)
        assert mixture.sample(rng) == lam and rng.bounds == [6]
    # Weights 1/2, 1/4, 1/8, 1/8 lie on a grid of 8 with running sums 4, 6, 7, 8.
    alpha = known_alpha(Fraction(2), (Fraction(1, 2), Fraction(1, 4),
                                      Fraction(1, 8), Fraction(1, 8)))
    expected = [Fraction(1, 3)] * 4 + [Fraction(2, 3)] * 2 + [Fraction(1)]
    for k, lam in enumerate(expected):
        rng = _FixedDraw(k)
        assert alpha.sample(rng) == lam and rng.bounds == [8]


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
