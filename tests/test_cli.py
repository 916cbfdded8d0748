import ast
import concurrent.futures
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from test_rational import decimal_digits

from gathersim import cli, experiments
from gathersim.adversary import (
    AdaptiveThm6,
    ObliviousExplicit,
    ObliviousGenerated,
    PerRobot,
    TauBounded,
    adversary_from_descriptor,
)
from gathersim.cli import (
    CSV_FIELDS,
    ScenarioValidationError,
    bundled_scenario_names,
    bundled_scenario_path,
    emit_report,
    main,
    parse_scenario,
    render_report_csv,
    render_report_json,
    run_experiment,
)
from gathersim.policies import (
    TAU_TRIPLE,
    THREE_CHOICE,
    Deterministic,
    Mixture,
    Oracle,
    known_alpha,
    policy_from_descriptor,
)
from gathersim.rational import MAX_DIGITS, MAX_EXPONENT, derive_seed

MINIMAL = {
    "name": "mini",
    "trials": 3,
    "master_seed": 5,
    "budgets": {"max_total_looks": 6, "max_time": "100"},
    "robots": [
        {"id": 0, "start": "0", "policy": "p"},
        {"id": 1, "start": "1", "policy": "p"},
    ],
    "policies": {"p": {"kind": "THREE_CHOICE"}},
    "adversary": {"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "2"},
}


def scenario(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return parse_scenario(json.dumps(raw))


def test_parse_minimal_defaults():
    scn = scenario()
    assert scn.mode == "two_robot"
    assert [r.speed for r in scn.setups[0].robots] == [F(1), F(1)]  # default speed
    setup = scn.setups[0]
    assert setup.budgets.max_total_looks == 6
    assert setup.budgets.max_time / setup.unit == F(100)


def test_parse_exact_rationals():
    scn = scenario(adversary={"kind": "TAU_BOUNDED", "tau": "1/2"})
    adv = scn.setups[0].adversary
    assert adv.tau == F(1, 2)


@pytest.mark.parametrize("patch,path_fragment", [
    ({"trials": 0}, "trials"),
    ({"name": ""}, "name"),
    ({"mode": "bogus"}, "mode"),
    ({"robots": []}, "robots"),
    ({"policies": {"p": {"kind": "NOPE"}}}, "policies.p"),
    ({"adversary": {"kind": "NOPE"}}, "adversary"),
    ({"budgets": {"max_total_looks": -1}}, "max_total_looks"),
    # The name is the stem of every output file's name.
    ({"name": "a/b"}, "name"),
    ({"name": "\ud800"}, "name"),
    ({"name": "x" * 129}, "name"),
    # Each robot's first cycle reads its schedule's first pair.
    ({"adversary": {"kind": "OBLIVIOUS_EXPLICIT", "schedules": {"0": [["1", "0"]], "1": []}}},
     "adversary: schedules.1: at least one (W, C) pair required"),
])
def test_parse_rejects_invalid(patch, path_fragment):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(patch)
    with pytest.raises(ScenarioValidationError) as err:
        parse_scenario(json.dumps(raw))
    assert path_fragment in str(err.value)


def test_parse_rejects_float_rationals():
    raw = json.loads(json.dumps(MINIMAL))
    raw["budgets"] = {"max_total_looks": 5, "max_time": 1.5}
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(raw))


def test_schema_expresses_every_kind():
    # Every policy and adversary kind is built from its descriptor.
    policies = [
        ({"kind": "DETERMINISTIC", "lam": "1/2"}, Deterministic(F(1, 2))),
        ({"kind": "FINITE_MIXTURE", "choices": [["0", "1/2"], ["1", "1/2"]]},
         Mixture(((F(0), F(1, 2)), (F(1), F(1, 2))))),
        ({"kind": "THREE_CHOICE"}, THREE_CHOICE),
        ({"kind": "TAU_TRIPLE"}, TAU_TRIPLE),
        ({"kind": "KNOWN_ALPHA", "alpha": "2"}, known_alpha(F(2))),
        ({"kind": "ORACLE", "script": ["1", "-1/4"]}, Oracle([F(1), F(-1, 4)])),
    ]
    for desc, built in policies:
        assert policy_from_descriptor(desc) == built
    adversaries = [
        ({"kind": "OBLIVIOUS_EXPLICIT", "schedules": {"0": [["1", "0"]], "1": [["1", "0"]]}},
         ObliviousExplicit({0: [(F(1), F(0))], 1: [(F(1), F(0))]})),
        ({"kind": "OBLIVIOUS_GENERATED", "generator": "uniform",
          "params": {"w_lo": "0", "w_hi": "1", "c_lo": "0", "c_hi": "0"}},
         ObliviousGenerated("uniform", (F(0), F(1), F(0), F(0)), 0)),
        ({"kind": "TAU_BOUNDED", "tau": "1/10"}, TauBounded(F(1, 10), 0)),
        ({"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "1"},
         ObliviousGenerated("uniform", (F(0), F(1), F(0), F(0)), 0)),
        ({"kind": "PER_ROBOT", "robots": {
            "0": {"kind": "OBLIVIOUS_GENERATED", "generator": "constant",
                  "params": {"w": "0", "c": "0"}},
            "1": {"kind": "TAU_BOUNDED", "tau": "1"}}},
         PerRobot({0: ObliviousGenerated("constant", (F(0), F(0)), 0),
                   1: TauBounded(F(1), 0)})),
        ({"kind": "ADAPTIVE_THM6", "initial_waits": {"0": "2", "1": "1"}},
         AdaptiveThm6({0: F(2), 1: F(1)})),
    ]
    for desc, built in adversaries:
        assert adversary_from_descriptor(desc) == built


def test_run_experiment_deterministic_bytes():
    scn = scenario()
    a = run_experiment(scn)
    b = run_experiment(scn)
    assert render_report_json(a) == render_report_json(b)
    assert render_report_csv(a) == render_report_csv(b)


def test_run_experiment_workers_match_sequential():
    scn = scenario(trials=8)
    seq = run_experiment(scn, workers=1)
    par = run_experiment(scn, workers=2)
    assert render_report_json(seq) == render_report_json(par)
    assert render_report_csv(seq) == render_report_csv(par)


def test_report_json_roundtrip():
    rep = run_experiment(scenario())
    assert json.loads(render_report_json(rep)) == rep.summary


def test_csv_shape_and_empty_first_gather(tmp_path):
    scn = scenario(trials=2, policies={"p": {"kind": "DETERMINISTIC", "lam": "0"}})
    rep = run_experiment(scn)
    text = render_report_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3
    for row in lines[1:]:
        assert row.endswith(",")  # no gather time for lambda = 0 spinners
    paths = emit_report(rep, "both", tmp_path)
    assert sorted(p.name for p in paths) == ["mini.report.json", "mini.trials.csv"]


def test_trace_archive(tmp_path):
    scn = scenario(trials=2)
    rep = run_experiment(scn, trace_policy="all")
    paths = emit_report(rep, "json", tmp_path)
    tdir = tmp_path / "mini.traces"
    assert tdir.is_dir()
    files = sorted(tdir.iterdir())
    assert len(files) == 2
    archived = json.loads(files[0].read_text())
    assert {"events", "final_status", "horizon", "look_count"} <= archived.keys()


def test_bundled_scenarios_parse():
    names = bundled_scenario_names()
    assert {"thm1_gamma0", "thm1_positive", "thm3_oracle", "thm4_one_free",
            "lemma2", "lemma3", "thm5_4", "thm5_64", "thm5_1024",
            "thm6_adaptive", "ssync_halving", "lemma1_projection",
            "multirobot_n8"} <= set(names)
    for name in names:
        scn = parse_scenario(bundled_scenario_path(name).read_text(encoding="utf-8"))
        assert scn.name == name


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(MINIMAL))
    assert main(["run", str(good), "--out", str(tmp_path / "o")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MINIMAL, "trials": 0}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2

    # runtime failure: schedule underrun inside the run maps to exit 3
    broken = json.loads(json.dumps(MINIMAL))
    broken["adversary"] = {"kind": "OBLIVIOUS_EXPLICIT",
                           "schedules": {"0": [["1", "0"]], "1": [["1", "0"]]}}
    broken["budgets"] = {"max_total_looks": 50, "max_time": "1000"}
    broken["policies"] = {"p": {"kind": "DETERMINISTIC", "lam": "1/4"}}
    bpath = tmp_path / "broken.json"
    bpath.write_text(json.dumps(broken))
    # The message names the failing trial and the seeds that replay it; from
    # a worker process the error comes back pickled.
    seeds = f"adv seed {derive_seed(5, 0, 'adv')}, alg seed {derive_seed(5, 0, 'alg')}"
    capsys.readouterr()
    for workers in ("1", "2"):
        assert main(["run", str(bpath), "--out", str(tmp_path / "o"),
                     "--workers", workers]) == 3
        assert capsys.readouterr().err == (
            f"runtime error: trial 0 ({seeds}): "
            "robot 0 exhausted its 1-entry schedule at cycle 1\n"), workers


def test_main_exit_3_when_an_oracle_script_runs_out(tmp_path, capsys):
    # A robot's look in cycle 2 asks for a third scripted lambda; the run
    # has looks to spare, so the trial fails there, whichever process runs it.
    short = {**MINIMAL, "budgets": {"max_total_looks": 50, "max_time": "1000"},
             "policies": {"p": {"kind": "ORACLE", "script": ["1/4", "1/4"]}}}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(short))
    seeds = f"adv seed {derive_seed(5, 0, 'adv')}, alg seed {derive_seed(5, 0, 'alg')}"
    for workers in ("1", "2"):
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--workers", workers]) == 3
        assert capsys.readouterr().err == (
            f"runtime error: trial 0 ({seeds}): "
            "oracle script of length 2 exhausted\n"), workers


def test_main_flag_overrides(tmp_path):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(MINIMAL))
    out = tmp_path / "o2"
    assert main(["run", str(good), "--trials", "5", "--seed", "99",
                 "--out", str(out), "--format", "json"]) == 0
    rep = json.loads((out / "mini.report.json").read_text())
    assert rep["stats"]["trials"] == 5
    assert rep["master_seed"] == 99


def test_main_runs_a_bundled_scenario_by_name(tmp_path, monkeypatch):
    # No file of that name in the working directory: the name is looked up
    # among the bundled scenarios, and runs as the bundled file does.
    monkeypatch.chdir(tmp_path)
    for scenario, out in (("thm1_gamma0", "by_name"),
                          (str(bundled_scenario_path("thm1_gamma0")), "by_path")):
        assert main(["run", scenario, "--trials", "2", "--out", out]) == 0
    for report in ("thm1_gamma0.report.json", "thm1_gamma0.trials.csv"):
        by_name = (tmp_path / "by_name" / report).read_bytes()
        assert by_name == (tmp_path / "by_path" / report).read_bytes()
    assert b'"trials": 2' in (tmp_path / "by_name" / "thm1_gamma0.report.json").read_bytes()


def _run_exit_code(tmp_path, raw) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return main(["run", str(path), "--out", str(tmp_path / "o")])


_DEEP = 100_000


@pytest.mark.parametrize("text,flags,message", [
    ('{"name": ', [], "not valid JSON"),
    ('{"name": ', ["--trials", "3", "--seed", "4"], "not valid JSON"),
    (json.dumps([MINIMAL]), ["--trials", "3"], "must be a JSON object"),
    (json.dumps([MINIMAL]), [], "must be a JSON object"),
    ("[" * _DEEP, [], "not valid JSON"),
    ("[" * _DEEP, ["--trials", "3"], "not valid JSON"),
    ('{"name": "n", "analysis": ' + "[" * _DEEP + "]" * _DEEP + "}", [], "not valid JSON"),
    ('{"name": "n", "analysis": ' + "[" * _DEEP + "]" * _DEEP + "}", ["--trials", "3"],
     "not valid JSON"),
], ids=["bad-json", "bad-json-flags", "list-flags", "list", "deep", "deep-flags",
        "deep-field", "deep-field-flags"])
def test_main_rejects_non_object_files(tmp_path, capsys, text, flags, message):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: $: ") and message in err


@pytest.mark.parametrize("make,reason", [
    (lambda path: path.write_bytes(b"\xff\xfe{"), "not UTF-8 text"),
    (lambda path: path.mkdir(), "Is a directory"),
], ids=["not-utf8", "directory"])
def test_main_rejects_unreadable_files(tmp_path, capsys, make, reason):
    path = tmp_path / "x.json"
    make(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read scenario {str(path)!r}: ")
    assert reason in err and err.count("\n") == 1


_BOOL_ID_ROBOTS = [{"id": True, "start": "0", "policy": "p"},
                   {"id": 1, "start": "1", "policy": "p"}]


@pytest.mark.parametrize("patch,field", [
    ({"trials": True}, "trials"),
    ({"master_seed": False}, "master_seed"),
    ({"budgets": {"max_total_looks": True}}, "budgets.max_total_looks"),
    ({"robots": _BOOL_ID_ROBOTS}, "robots[0].id"),
    ({"mode": "thm3_oracle", "params": {"random_draws": False}}, "params.random_draws"),
])
def test_main_rejects_booleans_in_integer_fields(tmp_path, capsys, patch, field):
    assert _run_exit_code(tmp_path, {**MINIMAL, **patch}) == 2
    assert f"validation error: {field}:" in capsys.readouterr().err


THM6 = {"name": "t6", "mode": "thm6", "trials": 1,
        "budgets": {"max_total_looks": 6}, "params": {}}


@pytest.mark.parametrize("params,field", [
    ({"w_first": "1", "w_second": "1"}, "params.w_second"),
    ({"w_first": "2", "w_second": "2/1"}, "params.w_second"),
    ({"w_first": "-1/2"}, "params.w_first"),
    ({"w_second": "-1"}, "params.w_second"),
    ({"delta": "0"}, "params.delta"),
    ({"delta": "-1"}, "params.delta"),
    ({"w_first": "x"}, "params.w_first"),
])
def test_main_rejects_bad_thm6_params(tmp_path, capsys, params, field):
    assert _run_exit_code(tmp_path, {**THM6, "params": params}) == 2
    assert f"validation error: {field}:" in capsys.readouterr().err


def test_main_runs_valid_thm6(tmp_path):
    assert _run_exit_code(tmp_path, {**THM6, "params": {"w_first": "1/2"}}) == 0


@pytest.mark.parametrize("patch,field", [
    ({"budgets": {"max_total_looks": 6, "max_time": f"1e{MAX_EXPONENT + 1}"}}, "budgets.max_time"),
    ({"robots": [{"id": 0, "start": "1" * (MAX_DIGITS + 1), "policy": "p"},
                 {"id": 1, "start": "1", "policy": "p"}]}, "robots[0].start"),
    ({"adversary": {"kind": "TAU_BOUNDED", "tau": f"1e-{MAX_EXPONENT + 1}"}}, "adversary"),
])
def test_main_rejects_oversized_rationals(tmp_path, capsys, patch, field):
    assert _run_exit_code(tmp_path, {**MINIMAL, **patch}) == 2
    assert f"validation error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("patch,field", [
    ({"budgets": []}, "budgets"),
    ({"robots": [1, 2]}, "robots[0]"),
    ({"policies": []}, "policies"),
    ({"policies": {"p": 3}}, "policies.p"),
    ({"adversary": 3}, "adversary"),
    ({"adversary": {"kind": "PER_ROBOT", "robots": [1]}}, "adversary"),
    ({"adversary": {"kind": "OBLIVIOUS_GENERATED", "generator": "nope", "params": {}}},
     "adversary"),
    ({"schedule_variants": {"kind": "ASYNC_IC"}}, "schedule_variants"),
    ({"budgets": {"max_time": "0"}}, "budgets.max_time"),
    ({"robots": [{"id": 0, "start": "0", "speed": "0", "policy": "p"},
                 {"id": 1, "start": "1", "policy": "p"}]}, "robots[0].speed"),
    ({"robots": [{"id": 0, "start": "0", "policy": "p"},
                 {"id": 1, "start": "1", "speed": "-1", "policy": "p"}]}, "robots[1].speed"),
    ({"master_seed": "7"}, "master_seed"),
    ({"robots": [{"start": "0", "policy": "p"},
                 {"id": 1, "start": "1", "policy": "p"}]}, "robots[0].id"),
    ({"robots": [{"id": "0", "start": "0", "policy": "p"},
                 {"id": 1, "start": "1", "policy": "p"}]}, "robots[0].id"),
    ({"robots": [{"id": 0, "start": "0", "policy": "p"},
                 {"id": 1, "start": 0.5, "policy": "p"}]}, "robots[1].start"),
    ({"analysis": []}, "analysis"),
    ({"params": []}, "params"),
    ({"analysis": {"theorem5": 3}}, "analysis.theorem5"),
    ({"analysis": {"theorem5": {"delta": "1"}}}, "analysis.theorem5.tau"),
    ({"mode": []}, "mode"),
    ({"analysis": {"segment_attempts": "false"}}, "analysis.segment_attempts"),
    ({"analysis": {"segment_attempts": 1}}, "analysis.segment_attempts"),
    ({"analysis": {"segment_attempts": None}}, "analysis.segment_attempts"),
    ({"robots": [{"id": 0, "start": "0", "policy": ["p"]},
                 {"id": 1, "start": "1", "policy": "p"}]}, "robots[0].policy"),
    # Only an absent key skips the bound; a falsy value is no object either.
    ({"analysis": {"theorem5": []}}, "analysis.theorem5"),
    ({"analysis": {"theorem5": 0}}, "analysis.theorem5"),
    ({"analysis": {"theorem5": ""}}, "analysis.theorem5"),
    ({"analysis": {"theorem5": False}}, "analysis.theorem5"),
    ({"analysis": {"theorem5": None}}, "analysis.theorem5"),
    ({"robots": [{"id": 0, "start": "0", "policy": "p"},
                 {"id": 0, "start": "1", "policy": "p"}]}, "robots"),
    ({"adversary": None}, "adversary"),
])
def test_main_rejects_malformed_sections(tmp_path, capsys, patch, field):
    assert _run_exit_code(tmp_path, {**MINIMAL, **patch}) == 2
    assert f"validation error: {field}:" in capsys.readouterr().err


def test_main_lists_the_bundled_scenarios(capsys):
    assert main(["list"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert names == bundled_scenario_names() and len(names) == 13


def _explicit(w, c):
    # Long enough for every look MINIMAL's budget allows.
    return {"kind": "OBLIVIOUS_EXPLICIT",
            "schedules": {"0": [["1", "0"]] * 3 + [[w, c]] + [["1", "0"]] * 4,
                          "1": [["1", "0"]] * 8}}


def _generated(generator, **params):
    base = {"uniform": {"w_lo": "0", "w_hi": "1", "c_lo": "0", "c_hi": "1"},
            "constant": {"w": "1", "c": "0"}}[generator]
    return {"kind": "OBLIVIOUS_GENERATED", "generator": generator,
            "params": {**base, **params}}


@pytest.mark.parametrize("adversary", [
    _explicit("-1", "0"),
    _explicit("1", "-1/2"),
    {"kind": "ASYNC_IC", "w_lo": "2", "w_hi": "1"},
    {"kind": "ASYNC_IC", "w_lo": "-1", "w_hi": "1"},
    _generated("uniform", w_lo="2"),
    _generated("uniform", c_lo="3/2"),
    _generated("uniform", w_lo="-1"),
    _generated("uniform", c_lo="-1/4"),
    _generated("constant", w="-1"),
    _generated("constant", c="-1"),
], ids=["explicit-w", "explicit-c", "async-order", "async-negative", "uniform-w-order",
        "uniform-c-order", "uniform-w-negative", "uniform-c-negative", "constant-w",
        "constant-c"])
@pytest.mark.parametrize("section", ["adversary", "schedule_variants"])
def test_main_rejects_adversary_ranges(tmp_path, capsys, adversary, section):
    # Checked when the adversary is built, not when a trial draws from it.
    if section == "adversary":
        raw, field = {**MINIMAL, "adversary": adversary}, "adversary"
    else:
        raw = {**MINIMAL, "schedule_variants": [MINIMAL["adversary"], adversary]}
        field = "schedule_variants[1]"
    assert _run_exit_code(tmp_path, raw) == 2
    assert f"validation error: {field}:" in capsys.readouterr().err


_ASYNC = {"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "1"}
_SCHEDULE = [["1", "0"]] * 8


@pytest.mark.parametrize("adversary,field", [
    ({"kind": "PER_ROBOT", "robots": {"0": _ASYNC, "7": _ASYNC}}, "robots"),
    ({"kind": "PER_ROBOT", "robots": {"0": _ASYNC}}, "robots"),
    ({"kind": "ADAPTIVE_THM6", "initial_waits": {"0": "2", "3": "1"}}, "initial_waits"),
    ({"kind": "OBLIVIOUS_EXPLICIT", "schedules": {"0": _SCHEDULE}}, "schedules"),
    ({"kind": "OBLIVIOUS_EXPLICIT", "schedules": {"0": _SCHEDULE, "1": _SCHEDULE,
                                                  "2": _SCHEDULE}}, "schedules"),
    ({"kind": "PER_ROBOT", "robots": {
        "0": _ASYNC, "1": {"kind": "OBLIVIOUS_EXPLICIT", "schedules": {"0": _SCHEDULE}}}},
     "robots.1.schedules"),
], ids=["per-robot-unknown", "per-robot-missing", "adaptive", "explicit-missing",
        "explicit-unknown", "per-robot-part"])
@pytest.mark.parametrize("section", ["adversary", "schedule_variants"])
def test_main_rejects_adversary_robot_ids(tmp_path, capsys, adversary, field, section):
    # An adversary keyed by robot ids the scenario does not have fails at
    # parse time, not on the first draw for the missing robot.
    if section == "adversary":
        raw, path = {**MINIMAL, "adversary": adversary}, "adversary"
    else:
        raw = {**MINIMAL, "schedule_variants": [MINIMAL["adversary"], adversary]}
        path = "schedule_variants[1]"
    assert _run_exit_code(tmp_path, raw) == 2
    assert f"validation error: {path}.{field}:" in capsys.readouterr().err


_ADAPTIVE_PART = {"kind": "PER_ROBOT", "robots": {
    "0": _ASYNC, "1": {"kind": "ADAPTIVE_THM6", "initial_waits": {"0": "2", "1": "1"}}}}


@pytest.mark.parametrize("raw,path", [
    ({**MINIMAL, "adversary": _ADAPTIVE_PART}, "adversary"),
    ({**MINIMAL, "schedule_variants": [MINIMAL["adversary"], _ADAPTIVE_PART]},
     "schedule_variants[1]"),
], ids=["adversary", "schedule_variants"])
def test_main_rejects_adaptive_per_robot_part(tmp_path, capsys, raw, path):
    # A PER_ROBOT part hands out precommitted pairs; an adaptive one has none.
    assert _run_exit_code(tmp_path, raw) == 2
    err = capsys.readouterr().err
    assert f"validation error: {path}: the part for robot 1 must be oblivious" in err


@pytest.mark.parametrize("patch", [{"analysis": {"segment_attempts": False}}, {}],
                         ids=["false", "absent"])
def test_segment_attempts_off(patch):
    tau = {"adversary": {"kind": "TAU_BOUNDED", "tau": "1/10"},
           "budgets": {"max_total_looks": 30}}
    on = run_experiment(scenario(**tau, analysis={"segment_attempts": True}))
    assert on.summary["stats"]["n_attempts"] > 0
    off = run_experiment(scenario(**tau, **patch))
    assert off.summary["stats"]["n_attempts"] == 0


SSYNC = {"name": "ss", "mode": "ssync", "params": {"activations": 4}}
THM3 = {"name": "t3", "mode": "thm3_oracle", "params": {"opposite_alphas": ["2"],
                                                         "random_draws": 1}}
THM4 = {"name": "t4", "mode": "thm4", "trials": 2, "budgets": {"max_total_looks": 12},
        "params": {"alphas": ["1"], "tau": "1/2", "fixed_sum": "13/20"}}
LEMMA1 = {"name": "l1", "mode": "lemma1", "trials": 2, "params": {"cycles": 2}}
MULTI = {"name": "mr", "mode": "multirobot", "trials": 2, "params": {"n": 3}}


def _with(base, **params):
    return {**base, "params": {**base["params"], **params}}


@pytest.mark.parametrize("raw,field", [
    (_with(SSYNC, activations="x"), "params.activations"),
    (_with(SSYNC, activations=0), "params.activations"),
    (_with(SSYNC, delta="0"), "params.delta"),
    (_with(THM3, opposite_alphas=[]), "params.opposite_alphas"),
    (_with(THM3, opposite_alphas="2"), "params.opposite_alphas"),
    (_with(THM3, opposite_alphas=["0"]), "params.opposite_alphas[0]"),
    (_with(THM3, same_alphas=["3", "1"]), "params.same_alphas[1]"),
    (_with(THM4, tau=f"1e{MAX_EXPONENT + 1}"), "params.tau"),
    (_with(THM4, fixed_sum="1/2"), "params.fixed_sum"),
    (_with(THM4, alphas=[]), "params.alphas"),
    (_with(THM4, alphas=["x"]), "params.alphas[0]"),
    ({**THM4, "params": {"tau": "1/2", "fixed_sum": "1"}}, "params.alphas"),
    (_with(LEMMA1, cycles=0), "params.cycles"),
    (_with(LEMMA1, cycles=True), "params.cycles"),
    (_with(MULTI, n=1), "params.n"),
    (_with(MULTI, n=321 ** 2 + 1), "params.n"),
    (_with(MULTI, tie_trials=-1), "params.tie_trials"),
    ({**MINIMAL, "analysis": {"theorem5": {"delta": "x", "tau": "1"}}},
     "analysis.theorem5.delta"),
    ({**MINIMAL, "analysis": {"theorem5": {"delta": "0", "tau": "1"}}},
     "analysis.theorem5.delta"),
    ({**MINIMAL, "analysis": {"theorem5": {"delta": "1e400", "tau": "1"}}},
     "analysis.theorem5"),
    (_with(MULTI, max_tie_rounds=-1), "params.max_tie_rounds"),
    (_with(MULTI, tie_max_rounds="x"), "params.tie_max_rounds"),
    ({**THM3, "params": {"opposite_alphas": ["2"]}}, "params.random_draws"),
    (_with(THM3, random_draws=-1), "params.random_draws"),
    (_with(THM4, delta="0"), "params.delta"),
    ({**THM3, "trials": 2}, "trials"),
    # A file with two bad fields reports the one checked first.
    ({**_with(THM6, w_first="1", w_second="1"), "robots": MINIMAL["robots"]},
     "params.w_second"),
    ({**MINIMAL, "robots": MINIMAL["robots"] + MINIMAL["robots"][:1], "params": {"x": 1}},
     "robots"),
    ({**THM3, "trials": 2, "robots": MINIMAL["robots"]}, "robots"),
    (_with(SSYNC, activations=10_001), "params.activations"),
    (_with(MULTI, n=1001), "params.n"),
    (_with(LEMMA1, cycles=10_001), "params.cycles"),
])
def test_main_rejects_bad_mode_params(tmp_path, capsys, raw, field):
    # Checked when the scenario is compiled, before any trial runs.
    assert _run_exit_code(tmp_path, raw) == 2
    assert f"validation error: {field}:" in capsys.readouterr().err


def test_main_rejects_thm3_trials_flag(tmp_path, capsys):
    # A thm3_oracle run is 1 + params.random_draws trials per alpha.
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(THM3))
    assert main(["run", str(path), "--trials", "2", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: trials:") and "params.random_draws" in err


@pytest.mark.parametrize("raw", [SSYNC, THM3, THM4, LEMMA1, MULTI, THM6])
def test_main_runs_valid_mode_params(tmp_path, raw):
    assert _run_exit_code(tmp_path, raw) == 0


def test_lemma1_cycles_cap_parses():
    # The longest run a file may ask for; one more exits 2.
    assert parse_scenario(json.dumps(_with(LEMMA1, cycles=10_000))).params["cycles"] == 10_000


def test_ssync_activations_cap_parses():
    # The largest schedule a file may ask for; one more exits 2.
    scn = parse_scenario(json.dumps(_with(SSYNC, activations=10_000)))
    assert scn.setups[0].budgets.max_total_looks == 10_000


@pytest.mark.parametrize("patch,field", [
    ({"robots": "garbage"}, "robots"),
    ({"robots": MINIMAL["robots"]}, "robots"),
    ({"adversary": {"kind": "NOPE"}}, "adversary"),
    ({"adversary": MINIMAL["adversary"]}, "adversary"),
    ({"schedule_variants": [MINIMAL["adversary"]]}, "schedule_variants"),
    ({"policies": {}}, "policies"),
    ({"analysis": {"segment_attempts": True}}, "analysis.segment_attempts"),
    ({"analysis": {"segment_attempts": False}}, "analysis.segment_attempts"),
], ids=["robots-garbage", "robots", "adversary-bad", "adversary", "variants", "policies",
        "segment-on", "segment-off"])
@pytest.mark.parametrize("base", [SSYNC, THM3, THM4, THM6, LEMMA1, MULTI],
                         ids=lambda raw: raw["mode"])
def test_main_rejects_two_robot_fields_in_other_modes(tmp_path, capsys, base, patch, field):
    # Only a two_robot run reads these, so elsewhere they would be ignored.
    assert _run_exit_code(tmp_path, {**base, **patch}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {field}: read only in mode 'two_robot'")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each pool cli opens; the pools run serially and
    start no process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("workers,trials,cores,size", [
    (10 ** 6, 3, 8, 3),
    (10 ** 6, 8, 4, 4),
    (3, 8, 16, 3),
    (2, 8, None, 1),
])
def test_worker_pool_size_is_capped(monkeypatch, pool_sizes, workers, trials, cores, size):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    scn = scenario(trials=trials)
    pooled = run_experiment(scn, workers=workers)
    assert pool_sizes == [size]
    serial = run_experiment(scn)
    assert render_report_json(pooled) == render_report_json(serial)
    assert render_report_csv(pooled) == render_report_csv(serial)


def test_import_leaves_the_process_pool_unloaded():
    # Only run_experiment opening a pool imports it, so a serial run never
    # loads multiprocessing.  A fresh interpreter: this one has the pool.
    code = ("import sys, gathersim.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_runtime_imports_only_the_standard_library():
    # The runtime is stdlib-only: every import in the package's modules is
    # of the standard library or of the package itself.
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "gathersim", (
                    f"{path.name}:{node.lineno} imports {name}")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_workers_below_one(tmp_path, capsys, pool_sizes, workers):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(MINIMAL))
    assert main(["run", str(path), "--workers", workers, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: --workers must be at least 1\n"
    assert pool_sizes == [] and not (tmp_path / "o").exists()


def test_single_schedule_variant_reports_variant_counts():
    rep = run_experiment(scenario(trials=4, schedule_variants=[MINIMAL["adversary"]]))
    extras = rep.summary["extras"]
    assert extras["variant_trials"] == [4]
    assert extras["variant_gathered"] == [rep.summary["stats"]["gathered"]]


@pytest.mark.parametrize("raw,field", [
    # A misspelt key would otherwise fall back to its default silently.
    ({**MINIMAL, "budget": {"max_total_looks": 3}}, "budget"),
    ({**MINIMAL, "analysis": {"segment_attempt": True}}, "analysis.segment_attempt"),
    ({**MINIMAL, "budgets": {"max_total_look": 3}}, "budgets.max_total_look"),
    ({**MINIMAL, "analysis": {"theorem5": {"delta": "1", "tau": "1", "taus": "2"}}},
     "analysis.theorem5.taus"),
    ({**MINIMAL, "robots": [{"id": 0, "start": "0", "policy": "p", "sped": "2"},
                            {"id": 1, "start": "1", "policy": "p"}]}, "robots[0].sped"),
    ({**MINIMAL, "params": {"activations": 4}}, "params.activations"),
    (_with(SSYNC, delt="1"), "params.delt"),
    (_with(THM3, random_draw=1), "params.random_draw"),
    (_with(THM4, fixed="1"), "params.fixed"),
    (_with(THM6, w_frist="3"), "params.w_frist"),
    (_with(LEMMA1, cycle=3), "params.cycle"),
    (_with(MULTI, tie_trial=3), "params.tie_trial"),
], ids=["top-level", "analysis", "budgets", "theorem5", "robot", "two-robot-params", "ssync",
        "thm3", "thm4", "thm6", "lemma1", "multirobot"])
def test_main_rejects_unknown_section_keys(tmp_path, capsys, raw, field):
    assert _run_exit_code(tmp_path, raw) == 2
    assert f"validation error: {field}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("patch,message", [
    ({"policies": {"p": {"kind": "THREE_CHOICE", "lam": "1"}}}, "policies.p: unknown key 'lam'"),
    ({"policies": {"p": {"kind": "DETERMINISTIC", "lam": "1", "lams": "2"}}},
     "policies.p: unknown key 'lams'"),
    ({"policies": {"p": {"kind": "KNOWN_ALPHA", "alpha": "2", "weight": []}}},
     "policies.p: unknown key 'weight'"),
    ({"adversary": {"kind": "ASYNC_IC", "w_lo": "0", "w_hi": "2", "seeds": 1}},
     "adversary: unknown key 'seeds'"),
    # A misspelt required key is reported as missing.
    ({"adversary": {"kind": "ASYNC_IC", "w_lo": "0", "w_high": "2"}},
     "adversary: missing key 'w_hi'"),
    ({"adversary": {"kind": "TAU_BOUNDED", "tau": "1", "fixed": "2"}},
     "adversary: unknown key 'fixed'"),
    ({"adversary": _generated("uniform", c_high="1")}, "adversary: unknown key 'params.c_high'"),
    ({"adversary": {"kind": "PER_ROBOT", "robots": {
        "0": _ASYNC, "1": {**_ASYNC, "sed": 3}}}}, "adversary: robots.1: unknown key 'sed'"),
    ({"schedule_variants": [{"kind": "ADAPTIVE_THM6", "initial_waits": {"0": "2", "1": "1"},
                             "waits": {}}]}, "schedule_variants[0]: unknown key 'waits'"),
    # Each trial draws from its own seed, so a descriptor has none.
    ({"adversary": {**_ASYNC, "seed": 3}}, "adversary: unknown key 'seed'"),
    ({"adversary": {"kind": "TAU_BOUNDED", "tau": "1", "seed": 3}},
     "adversary: unknown key 'seed'"),
    ({"adversary": {**_generated("uniform"), "seed": 3}}, "adversary: unknown key 'seed'"),
    ({"adversary": {"kind": "PER_ROBOT", "robots": {
        "0": _ASYNC, "1": {"kind": "TAU_BOUNDED", "tau": "1", "seed": 3}}}},
     "adversary: robots.1: unknown key 'seed'"),
], ids=["three-choice", "deterministic", "known-alpha", "async-ic", "async-ic-required",
        "tau-bounded",
        "generated-params", "per-robot-part", "adaptive", "async-ic-seed", "tau-bounded-seed",
        "generated-seed", "per-robot-part-seed"])
def test_main_rejects_unknown_descriptor_keys(tmp_path, capsys, patch, message):
    assert _run_exit_code(tmp_path, {**MINIMAL, **patch}) == 2
    assert f"validation error: {message}" in capsys.readouterr().err


def test_main_writes_traces_of_long_adaptive_runs(tmp_path):
    # At 900 looks a thm6 run's denominators pass 4300 decimal digits,
    # where str() of an int stops.
    raw = json.loads(bundled_scenario_path("thm6_adaptive").read_text(encoding="utf-8"))
    raw["trials"] = 1
    raw["budgets"]["max_total_looks"] = 900
    path = tmp_path / "thm6_900.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--traces", "all", "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "thm6_adaptive.traces" / "trial_000000.json").read_text()
    written = text[text.rindex('"horizon": "') + 12:]
    horizon = experiments.run_one_trial(parse_scenario(json.dumps(raw)), 0).trace.horizon
    assert horizon.denominator > 10 ** 4300
    expected = f"{decimal_digits(horizon.numerator)}/{decimal_digits(horizon.denominator)}"
    assert written.startswith(expected + '",')
