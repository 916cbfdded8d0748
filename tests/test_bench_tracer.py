"""The benchmark's span wrappers still find, and see called, every name they trace.

``bench/tracer.py`` patches functions and methods of the package by name
(``sample`` on every policy class that defines it, ``wait_time`` and
``computation_delay`` on the adversaries, and the functions it lists), and
``bench/workloads.py`` names the spans each workload's traced run must
record calls in.  Renaming or deleting a traced name breaks the traced
benchmark, and so does a name that is no longer called; these tests catch
both in the main suite.  The bench modules are compiled from their files,
which are not changed, and no bytecode or output is written under
``bench/``.
"""

import sys
import types
from pathlib import Path

import pytest

import gathersim.cli as cli  # loads every module the tracer patches
from gathersim import adversary, policies

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """The bench module ``name``, compiled from its source (no bytecode is
    cached).  It is listed in ``sys.modules`` while it runs, as dataclasses
    look their module up there."""
    path = _BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


workloads = _load("workloads")


def test_tracer_installs_on_every_traced_name_and_restores():
    tracer = _load("tracer").Tracer()
    originals = {cls: vars(cls).get("sample") for cls in
                 (policies.Deterministic, policies.Mixture, policies.Oracle)}
    tracer.install()  # fails if a traced function or method is missing
    try:
        for cls in originals:
            assert hasattr(vars(cls)["sample"], "__wrapped__"), cls
        assert hasattr(vars(adversary._Oblivious)["wait_time"], "__wrapped__")
    finally:
        tracer.restore()
    assert {cls: vars(cls).get("sample") for cls in originals} == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_calls_every_active_span(tmp_path, name):
    # The workload's bundled scenario at its own seed and smoke size, run,
    # traced and emitted as the benchmark's traced batches are.
    wl = workloads.WORKLOADS[name]
    text = workloads.scenario_text(cli, wl, workloads.default_seed(cli, wl), "smoke")
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        scn = cli.parse_scenario(text)
        report = cli.run_experiment(scn, workers=1, trace_policy=wl.trace_policy)
        cli.emit_report(report, "both", tmp_path)
    finally:
        tracer.restore()
    silent = [span for span in wl.active_spans if tracer.stat(span).calls == 0]
    assert silent == []
