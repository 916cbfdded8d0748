"""Every descriptor kind's draws, pinned by SHA-256 digests.

The golden reports cover only the kinds a bundled scenario uses
(THREE_CHOICE, TAU_TRIPLE and the adversaries of the shipped files).
These digests pin, for every other policy kind and for ASYNC_IC, the
exact values drawn at a fixed seed and the state the RNG is left in, so a
change to how a kind is built or sampled that alters any draw fails here.
Re-record them only for a change meant to alter the draws.
"""

import hashlib
import random

import pytest

from gathersim.adversary import PerRobot, adversary_from_descriptor
from gathersim.policies import policy_from_descriptor
from gathersim.rational import format_rat

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
}


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def policy_draws(desc, seed=20191) -> str:
    """``SAMPLES`` draws of the policy, then the RNG's next ``random()``."""
    policy = policy_from_descriptor(desc)
    rng = random.Random(seed)
    lines = [f"{type(lam).__name__} {format_rat(lam)}"
             for lam in (policy.sample(rng) for _ in range(SAMPLES))]
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
            w = adv.wait_time(robot, cycle)
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
