"""Hostile scenario files fail at parse time, with exit code 2, and never later.

``parse_scenario`` on any JSON value, bundled files with one field
replaced among them, returns a ``Scenario`` or raises
``ScenarioValidationError``.  ``main`` on a bundled file with one field
replaced by a drawn value exits 0 or 2 within ``DEADLINE`` per example,
or 3 only where a trial outruns an explicit schedule: how many cycles a
robot enters depends on the run, so that is a runtime error by design
(``test_cli.py::test_main_exit_codes``).

Fields that count a run's work (``WORK_FIELDS``) are drawn small in the
runs, as ``--trials 1`` does for ``trials``: they are not capped, and
``run_experiment`` holds one row and one outcome per trial.  Fields that
size one trial's memory (``params.cycles``, ``params.n``,
``params.activations``) are capped at parse time, so they are drawn from
every integer, and a run at the cap must end within the deadline (a
1000-robot multirobot trial is the slowest: 16 s on one 2-core Xeon).
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gathersim.cli import (Scenario, ScenarioValidationError, bundled_scenario_names,
                           bundled_scenario_path, main, parse_scenario)
from gathersim.rational import MAX_DIGITS, MAX_EXPONENT

DEADLINE = timedelta(seconds=60)

OUTRUN_SCHEDULE = re.compile(r"runtime error: trial \d+ \([^)]*\): robot \d+ exhausted "
                             r"its \d+-entry schedule at cycle \d+\n")

WORK_FIELDS = {("trials",), ("params", "random_draws"), ("params", "tie_trials"),
               ("budgets", "max_total_looks")}

BUNDLED = {name: json.loads(bundled_scenario_path(name).read_text())
           for name in bundled_scenario_names()}

RATIONAL_TEXT = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(), st.integers()),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(["0", "-1", "1/3", "0.5", f"1e{MAX_EXPONENT}", f"1e-{MAX_EXPONENT}",
                     f"1e{MAX_EXPONENT + 1}", "1" * (MAX_DIGITS + 1), "nan", "inf", "",
                     " 7 ", "1_000", "\ud800", "a/b", "../x", "THREE_CHOICE", "uniform"]))


def _json(integers):
    """Any JSON value, its integers drawn from ``integers``."""
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats() | st.text(max_size=12)
        | RATIONAL_TEXT,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
        max_leaves=10)


HUGE = st.sampled_from([10 ** MAX_DIGITS, -10 ** MAX_DIGITS, 2 ** 63, 10 ** 4000])
ANY_JSON = _json(st.integers() | HUGE)
SMALL_JSON = _json(st.integers(-2, 100))


def _paths(value, prefix=()):
    """Every field path in a scenario file, and an unknown key in each object."""
    if isinstance(value, dict):
        yield prefix + ("unknown",)
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


FIELDS = [(name, path) for name, raw in BUNDLED.items() for path in _paths(raw)]


@st.composite
def edited_files(draw, values=None):
    """A bundled file with one field replaced: by a value from ``values``,
    else by a small one in a field that counts work and any other one
    elsewhere."""
    name, path = draw(st.sampled_from(FIELDS))
    raw = copy.deepcopy(BUNDLED[name])
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if values is None:
        values = SMALL_JSON if path in WORK_FIELDS else ANY_JSON
    parent[path[-1]] = draw(values)
    return raw


def _parses_or_fails_validation(text: str) -> None:
    try:
        scn = parse_scenario(text)
    except ScenarioValidationError:
        return
    assert isinstance(scn, Scenario)


@settings(max_examples=300, deadline=DEADLINE, derandomize=True, database=None)
@given(st.one_of(ANY_JSON.map(json.dumps), edited_files(ANY_JSON).map(json.dumps),
                 st.integers(1, 10 ** 5).map(lambda depth: "[" * depth + "]" * depth),
                 st.text(max_size=40)))
@example("1" * 5000)  # past the decoder's digit limit
@example('{"name": "x", "trials": ' + "9" * 5000 + "}")
def test_parse_scenario_accepts_or_names_a_field(text):
    _parses_or_fails_validation(text)


@settings(max_examples=120, deadline=DEADLINE, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edited_files())
@example({**BUNDLED["lemma1_projection"], "params": {"cycles": 10_000}})
@example({**BUNDLED["ssync_halving"], "params": {"activations": 10_000}})
@example({**BUNDLED["thm1_positive"], "name": "a/b"})
@example({**BUNDLED["thm1_gamma0"],  # robot 0 then outruns its schedule
          "adversary": {"kind": "OBLIVIOUS_EXPLICIT",
                        "schedules": {"0": [["1", "0"]] * 3, "1": [["3", "0"]] * 3}}})
def test_main_exits_0_or_2_on_an_edited_bundled_file(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/scenario.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", path, "--trials", "1", "--format", "json",
                         "--out", f"{tmp}/out"])
    message = err.getvalue()
    if code == 3:
        assert OUTRUN_SCHEDULE.fullmatch(message), message
    else:
        assert code == 0 or (code == 2 and message.startswith("validation error: ")), message
