"""Machine-speed reference for timing on a shared machine.

On the 2-vCPU machine this benchmark was built on, identical work ran up
to twice as slow for stretches of tens of seconds to minutes, when other
load shared the cores; process CPU time grew with it.  So the benchmark
times this fixed kernel, which does not use gathersim, next to every
timed batch and set-up probe, and scales the measured time by
NOMINAL_S / kernel time: to the machine speed at which the kernel takes
NOMINAL_S.  On that machine this cut the run-to-run IQR/median of
`short_batch` throughput from 11.9% to 3.4% over eight 30 s runs.

This module imports nothing from gathersim.
"""

import gc
import random
from fractions import Fraction
from time import perf_counter

# About the fastest kernel time seen on that machine (2.1 GHz Xeon, Python
# 3.11), so scaled times are close to what an uncontended core gives.
NOMINAL_S = 0.02


def kernel_seconds() -> float:
    """Time one run of the fixed kernel: small-Fraction arithmetic and str().

    The garbage collector is off while it runs, so the time does not depend
    on how many objects the caller holds.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rng = random.Random(12345)
        x = Fraction(1, 3)
        for _ in range(3000):
            y = Fraction(rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 10))
            x = (x + y) / 3 if x.denominator.bit_length() < 2000 else Fraction(1, 3)
            str(y)
        return perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def scaled(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, at nominal speed."""
    return seconds * NOMINAL_S / kernel_s
