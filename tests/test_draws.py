"""Every descriptor kind's draws, pinned by SHA-256 digests.

The golden reports cover only the kinds a bundled scenario uses
(THREE_CHOICE, TAU_TRIPLE and the adversaries of the shipped files).
These digests pin, for every other policy kind and for ASYNC_IC,
TAU_BOUNDED (drawn and fixed sum) and the uniform OBLIVIOUS_GENERATED, the
exact values drawn at a fixed seed and the state the RNG is left in, so a
change to how a kind is built or sampled that alters any draw fails here.
Re-record them only for a change meant to alter the draws.
"""

import hashlib
import random

import pytest

from test_experiments import _bundled

from gathersim.adversary import PerRobot, adversary_from_descriptor
from gathersim.experiments import run_one_trial
from gathersim.policies import policy_from_descriptor
from gathersim.rational import U01_DEN, below, format_rat

SAMPLES = 3000
CYCLES = 300

# name -> (descriptor, sha256 of its draws)
POLICY_DRAWS = {
    "three_choice": (
        {"kind": "THREE_CHOICE"},
        "a83ac79a43f28ae90c2da3f19eedb34edf99e9c73937086b3295dd1c2cbeb632"),
    "tau_triple": (
        {"kind": "TAU_TRIPLE"},
        "cf35faaa24ebd1381ff5c3d2bded5e595ccc06af0247296ec94a210dcd60b537"),
    # Draws nothing: the digest pins that the RNG is left untouched.
    "deterministic": (
        {"kind": "DETERMINISTIC", "lam": "-3/7"},
        "ed020efe382913740462845706d751a58c9c161c086881b938e99db72fd7ac46"),
    "finite_mixture": (
        {"kind": "FINITE_MIXTURE", "choices": [["0", "1/2"], ["1", "1/3"], ["5/4", "1/6"]]},
        "3492d4f7783734727930585e7500f90f805afe3707d84bd945c4749b7ab76e9b"),
    "finite_mixture_one_choice": (
        {"kind": "FINITE_MIXTURE", "choices": [["3/4", "1"]]},
        "de43840c53cbaa73eeb6c3d2c60df54ee11fced50e16464bd87d1b98accb17a7"),
    "known_alpha_2": (
        {"kind": "KNOWN_ALPHA", "alpha": "2"},
        "ee914a9cc4db264fb57d3e90c21b11ab84017d93373022dd70110baa6f100a01"),
    # Both alpha-dependent values are 1/2.
    "known_alpha_1": (
        {"kind": "KNOWN_ALPHA", "alpha": "1"},
        "709e888298a01db9beed08c1dad946cb2cdf5b93725ce164d4d80a7fddbfae66"),
    "known_alpha_weights": (
        {"kind": "KNOWN_ALPHA", "alpha": "3/2", "weights": ["1/2", "1/5", "1/10", "1/5"]},
        "a480ed09a8b629eb06824b19328c4764711b8df07264633692f0a8d8cc5119b5"),
}

# name -> (descriptor, its trial seed, sha256 of its draws); a PER_ROBOT
# seed maps each part's robot id to that part's own seed.
ADVERSARY_DRAWS = {
    "async_ic": (
        {"kind": "ASYNC_IC", "w_lo": "1/4", "w_hi": "3"}, 17,
        "d8ea2305c3e4d0249dd2a2ffea10403b9899424e8bed01e06365696da7a50202"),
    "async_ic_point": (
        {"kind": "ASYNC_IC", "w_lo": "2/3", "w_hi": "2/3"}, 5,
        "203ba323b177dffae2361c95907967700470036c06e63a4d4e6121baf6abac8f"),
    "per_robot_async_ic": (
        {"kind": "PER_ROBOT", "robots": {
            "0": {"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "1"},
            "1": {"kind": "TAU_BOUNDED", "tau": "1/10"}}}, {0: 3, 1: 4},
        "b9ddcb75940c9f7b8cfd533e26b7fa68b90ea02fd7ef40bf9b5a50dfc7895328"),
    # The drawn sum tau * (1 + u), as thm5_1024's robots draw it.
    "tau_bounded": (
        {"kind": "TAU_BOUNDED", "tau": "1/1024"}, 21,
        "d13cf739fdb5dbed946fd98dd6263082f59e72c7c09004e628cd3cc485480bcf"),
    # A fixed sum still skips one draw, as thm4's free robot does.
    "tau_bounded_fixed_sum": (
        {"kind": "TAU_BOUNDED", "tau": "1/3", "fixed_sum": "13/20"}, 22,
        "fe812c54f2dab7c5cc39a1c7f3cb8b098274d27c4ed30bfbb355ae7c3cd13989"),
    "oblivious_generated_uniform": (
        {"kind": "OBLIVIOUS_GENERATED", "generator": "uniform",
         "params": {"w_lo": "1/5", "w_hi": "7/3", "c_lo": "1/8", "c_hi": "5/2"}}, 23,
        "a5441529afc6d35a5df9492224aeb97e7e3b98627a55745867495f4ba6208fb8"),
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def policy_draws(desc, seed=20191) -> str:
    """``SAMPLES`` draws of the policy, then the RNG's next ``random()``."""
    policy = policy_from_descriptor(desc)
    rng = random.Random(seed)
    lines = [f"{type(lam).__name__} {format_rat(lam)}"
             for lam in (policy.sample(rng, k) for k in range(SAMPLES))]
    lines.append(repr(rng.random()))
    return _digest(lines)


def adversary_draws(desc, seed) -> str:
    """Each robot's wait and computation delay for ``CYCLES`` cycles."""
    adv = adversary_from_descriptor(desc)
    if isinstance(seed, dict):
        adv = PerRobot({rid: part.for_trial(seed[rid]) for rid, part in adv.parts.items()})
    else:
        adv = adv.for_trial(seed)
    lines = []
    for cycle in range(CYCLES):
        for robot in (0, 1):
            w = adv.wait_time(robot, cycle, None)
            c = adv.computation_delay(robot, cycle, None)
            lines.append(f"{type(w).__name__} {format_rat(w)} "
                         f"{type(c).__name__} {format_rat(c)}")
    return _digest(lines)


@pytest.mark.parametrize("name", sorted(POLICY_DRAWS))
def test_policy_draws_are_pinned(name):
    desc, digest = POLICY_DRAWS[name]
    assert policy_draws(desc) == digest


@pytest.mark.parametrize("name", sorted(ADVERSARY_DRAWS))
def test_adversary_draws_are_pinned(name):
    desc, seed, digest = ADVERSARY_DRAWS[name]
    assert adversary_draws(desc, seed) == digest


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, U01_DEN - 1, U01_DEN, U01_DEN + 1])
def test_below_draws_as_randrange(n):
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert below(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1, -5])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        random.Random(0).randrange(n)
    with pytest.raises(ValueError, match="empty range"):
        below(random.Random(0), n)


@pytest.mark.parametrize("name", ["thm1_positive", "thm4_one_free", "thm5_1024",
                                  "thm6_adaptive"])
def test_trials_draw_only_through_getrandbits(monkeypatch, name):
    scn = _bundled(name, {})
    words = []
    getrandbits = random.Random.getrandbits

    def counting(rng, k):
        words.append(k)
        return getrandbits(rng, k)

    def refuse(rng, *args):
        raise AssertionError(f"randrange{args} called")

    monkeypatch.setattr(random.Random, "getrandbits", counting)
    monkeypatch.setattr(random.Random, "randrange", refuse)
    run_one_trial(scn, 0)
    assert words
