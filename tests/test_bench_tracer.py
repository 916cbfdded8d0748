"""The benchmark's span wrappers still find every name they trace.

``bench/tracer.py`` patches functions and methods of the package by name
(``sample`` on every policy class that defines it, ``wait_time`` and
``computation_delay`` on the adversaries, and the functions it lists).
Renaming or deleting one of them breaks the traced benchmark; this test
catches that in the main suite.  The tracer is compiled from its file,
which is not changed.
"""

import types
from pathlib import Path

import gathersim.cli  # noqa: F401 - loads every module the tracer patches
from gathersim import adversary, policies

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    """The tracer module, compiled from its source (no bytecode is cached)."""
    module = types.ModuleType("bench_tracer")
    exec(compile(_TRACER.read_text(encoding="utf-8"), str(_TRACER), "exec"), module.__dict__)
    return module


def test_tracer_installs_on_every_traced_name_and_restores():
    tracer = _load_tracer().Tracer()
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
