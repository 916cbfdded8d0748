"""Set-up time of a fresh process: import gathersim, load and parse a scenario.

Usage: python3 bench/setup_probe.py <workload> <seed> <size>

Prints the seconds from before `import gathersim` to a parsed Scenario,
which is what a CLI run pays before its first trial, then the seconds of
one run of the machine-speed kernel (speed.py) right after it.
Interpreter start-up is not included.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from gathersim import cli
    from workloads import WORKLOADS, scenario_text

    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    cli.parse_scenario(scenario_text(cli, WORKLOADS[name], seed, size))
    setup = time.perf_counter() - start

    from speed import kernel_seconds

    print(repr(setup), repr(kernel_seconds()))
