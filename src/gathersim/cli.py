"""Scenario-driven experiment runner.

A scenario is a JSON file naming robots, policies, an adversary and
budgets; rationals are written as "p/q" or decimal strings so nothing is
contaminated by floats.  Runs are seeded Monte Carlo batches whose JSON
and CSV reports are byte-identical across invocations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__, experiments
from .adversary import AdversaryError, adversary_from_descriptor
from .analysis import binomial_halfwidth_3sigma, mean_halfwidth_3sigma
from .engine import Budgets, RobotSpec, Trace
from .policies import PolicyError, policy_from_descriptor
from .rational import format_rat, is_dyadic, parse_rat, to_dyadic


class ScenarioValidationError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


@dataclass
class Scenario:
    name: str
    mode: str
    trials: int
    master_seed: int
    budgets: Budgets
    analysis: dict
    robots: list[RobotSpec]
    policies: dict
    policy_bindings: dict
    adversary: dict | None
    schedule_variants: list | None
    params: dict
    raw: dict
    # Every rational of a two_robot or thm6 scenario is m / 2**e: its
    # trials then build their inputs as Dyadic (see rational.py).
    dyadic: bool = False


def _fail(path: str, message: str):
    raise ScenarioValidationError(f"{path}: {message}")


def parse_scenario(text: str) -> Scenario:
    """Validate and parse scenario JSON into an executable Scenario."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal past the digit limit
        _fail("$", f"not valid JSON ({exc})")
    if not isinstance(raw, dict):
        _fail("$", "scenario must be a JSON object")

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        _fail("name", "required non-empty string")
    mode = raw.get("mode", "two_robot")
    if mode not in experiments.TRIAL_RUNNERS:
        _fail("mode", f"unknown mode {mode!r}")
    trials = raw.get("trials", 1)
    if type(trials) is not int or trials < 1:
        _fail("trials", "integer >= 1 required")
    master_seed = raw.get("master_seed", 0)
    if type(master_seed) is not int:
        _fail("master_seed", "must be an integer")

    parsed = []  # every rational of the scenario, to choose its scalar type

    def rat(obj) -> Fraction:
        parsed.append(parse_rat(obj))
        return parsed[-1]

    def _rat(obj, path: str) -> Fraction:
        try:
            return rat(obj)
        except ValueError as exc:
            _fail(path, str(exc))

    braw = raw.get("budgets", {})
    looks = braw.get("max_total_looks", 1000)
    if type(looks) is not int or looks < 1:
        _fail("budgets.max_total_looks", "positive integer required")
    budgets = Budgets(looks, _rat(braw.get("max_time", "1000000000"), "budgets.max_time"))

    analysis = raw.get("analysis", {})
    if not isinstance(analysis, dict):
        _fail("analysis", "must be an object")

    policies = raw.get("policies", {})
    for pname, desc in policies.items():
        try:
            policy_from_descriptor(desc, rat)
        except (PolicyError, ValueError, KeyError) as exc:
            _fail(f"policies.{pname}", str(exc))

    robots = []
    bindings = {}
    if mode in ("two_robot",):
        rlist = raw.get("robots")
        if not isinstance(rlist, list) or len(rlist) != 2:
            _fail("robots", "exactly two robot entries required")
        for i, rdesc in enumerate(rlist):
            rid = rdesc.get("id")
            if type(rid) is not int:
                _fail(f"robots[{i}].id", "integer id required")
            pname = rdesc.get("policy")
            if pname not in policies:
                _fail(f"robots[{i}].policy", f"undefined policy {pname!r}")
            robots.append(RobotSpec(
                id=rid,
                start=_rat(rdesc.get("start", "0"), f"robots[{i}].start"),
                speed=_rat(rdesc.get("speed", "1"), f"robots[{i}].speed"),
                policy_ref=pname,
            ))
            bindings[rid] = pname
        if len({r.id for r in robots}) != 2:
            _fail("robots", "robot ids must be distinct")

    adversary = raw.get("adversary")
    variants = raw.get("schedule_variants")
    if mode == "two_robot":
        if adversary is None and not variants:
            _fail("adversary", "an adversary (or schedule_variants) is required")
        for label, desc in ([("adversary", adversary)] if adversary else []) + [
            (f"schedule_variants[{i}]", v) for i, v in enumerate(variants or [])
        ]:
            try:
                adversary_from_descriptor(desc, 0, rat)
            except (AdversaryError, ValueError, KeyError) as exc:
                _fail(label, str(exc))

    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail("params", "must be an object")
    if mode == "thm3_oracle":
        if type(params.get("random_draws")) is not int or params["random_draws"] < 0:
            _fail("params.random_draws", "non-negative integer required")
    if mode == "thm6":
        waits = [_rat(params.get(key, default), f"params.{key}")
                 for key, default in (("w_first", "2"), ("w_second", "1"))]
        if waits[0] == waits[1]:
            _fail("params.w_second", "must differ from params.w_first")
        if min(waits) < 0:
            _fail("params.w_first" if waits[0] < 0 else "params.w_second",
                  "must be non-negative")
        if _rat(params.get("delta", "1"), "params.delta") <= 0:
            _fail("params.delta", "must be positive")
    if mode == "thm4":
        for key in ("alphas", "tau", "fixed_sum"):
            if key not in params:
                _fail(f"params.{key}", "required for thm4 mode")

    dyadic = mode in ("two_robot", "thm6") and all(map(is_dyadic, parsed))
    if dyadic:
        robots = [RobotSpec(r.id, to_dyadic(r.start), to_dyadic(r.speed), r.policy_ref)
                  for r in robots]
    return Scenario(name=name, mode=mode, trials=trials, master_seed=master_seed,
                    budgets=budgets, analysis=analysis, robots=robots,
                    policies=policies, policy_bindings=bindings,
                    adversary=adversary, schedule_variants=variants,
                    params=params, raw=raw, dyadic=dyadic)


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (name without .json)."""
    return Path(resources.files("gathersim").joinpath("scenarios", f"{name}.json"))


def bundled_scenario_names() -> list[str]:
    base = resources.files("gathersim").joinpath("scenarios")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


# ----------------------------------------------------------------------
# Execution


def _fmt_real(x: float) -> str:
    return format(x, ".12g")


def trace_to_jsonable(trace: Trace) -> dict:
    def enc(v):
        if isinstance(v, Fraction):
            return format_rat(v)
        if isinstance(v, tuple):
            return [enc(x) for x in v]
        return v

    return {
        "final_status": trace.final_status,
        "look_count": {str(k): v for k, v in sorted(trace.look_count.items())},
        "horizon": format_rat(trace.horizon),
        "events": [
            {"time": format_rat(e.time), "robot": e.robot_id, "kind": e.kind,
             "payload": {k: enc(v) for k, v in sorted(e.payload.items())}}
            for e in trace.events
        ],
    }


def _run_chunk(raw_text: str, trial_indices: list[int], keep_traces: str):
    """Worker entry: parse once, run a batch of trials, strip traces."""
    scn = parse_scenario(raw_text)
    out = []
    for t in trial_indices:
        outcome = experiments.run_one_trial(scn, t)
        keep = keep_traces == "all" or (keep_traces == "failed" and not outcome.gathered)
        trace_json = trace_to_jsonable(outcome.trace) if (keep and outcome.trace) else None
        outcome.trace = None
        out.append((outcome, trace_json))
    return out


@dataclass
class Report:
    summary: dict
    rows: list[dict]
    traces: dict


def run_experiment(scn: Scenario, *, workers: int = 1,
                   trace_policy: str = "none") -> Report:
    """Execute all trials and assemble the deterministic report."""
    n = experiments.total_trials(scn)
    raw_text = json.dumps(scn.raw)
    indices = list(range(n))
    batches = []
    if workers > 1 and n > 1:
        chunk = max(1, (n + workers - 1) // workers)
        chunks = [indices[i:i + chunk] for i in range(0, n, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, [raw_text] * len(chunks), chunks,
                                 [trace_policy] * len(chunks)):
                batches.extend(part)
    else:
        batches = _run_chunk(raw_text, indices, trace_policy)

    rows = []
    traces = {}
    looks = []
    gathered = 0
    attempt_outcomes = []
    phase_looks = []
    phase_hist = {}
    k_hist = {}
    flags_pool = []
    for outcome, trace_json in batches:
        looks.append(outcome.total_looks)
        gathered += outcome.gathered
        attempt_outcomes.extend(outcome.attempt_outcomes)
        phase_looks.extend(outcome.phase_looks)
        for size in outcome.attempts_per_phase:
            phase_hist[size] = phase_hist.get(size, 0) + 1
        if outcome.k_value is not None:
            k_hist[outcome.k_value] = k_hist.get(outcome.k_value, 0) + 1
        flags_pool.append((outcome.flags, outcome.gathered))
        rows.append({
            "trial": outcome.trial,
            "gathered": 1 if outcome.gathered else 0,
            "total_looks": outcome.total_looks,
            "phases": outcome.n_phases if outcome.n_phases is not None else "",
            "attempts": outcome.n_attempts if outcome.n_attempts is not None else "",
            "first_gather_time": (format_rat(outcome.first_gather_time)
                                  if outcome.first_gather_time is not None else ""),
        })
        if trace_json is not None:
            traces[outcome.trial] = trace_json
    rows.sort(key=lambda r: r["trial"])

    frac = Fraction(gathered, n)
    success = (sum(attempt_outcomes) / len(attempt_outcomes)) if attempt_outcomes else None
    per_phase = (sum(phase_looks) / len(phase_looks)) if phase_looks else None
    halfwidth = {
        "gathered_fraction": _fmt_real(binomial_halfwidth_3sigma(float(frac), n)),
        "mean_total_looks": _fmt_real(mean_halfwidth_3sigma(looks)),
    }
    if success is not None:
        halfwidth["mean_attempt_success_rate"] = _fmt_real(
            binomial_halfwidth_3sigma(success, len(attempt_outcomes)))
    if per_phase is not None:
        halfwidth["mean_looks_per_phase"] = _fmt_real(mean_halfwidth_3sigma(phase_looks))

    stats = {
        "trials": n,
        "gathered": gathered,
        "gathered_fraction": format_rat(frac),
        "gathered_fraction_real": _fmt_real(float(frac)),
        "mean_total_looks": _fmt_real(sum(looks) / n),
        "mean_attempt_success_rate": None if success is None else _fmt_real(success),
        "mean_looks_per_phase": None if per_phase is None else _fmt_real(per_phase),
        "n_attempts": len(attempt_outcomes),
        "n_phases": len(phase_looks),
        "halfwidth_3sigma": halfwidth,
        "attempts_per_phase_hist": {str(k): v for k, v in sorted(phase_hist.items())},
        "k_histogram": {str(k): v for k, v in sorted(k_hist.items())},
    }
    extras = _mode_extras(scn, flags_pool)
    summary = {
        "name": scn.name,
        "version": __version__,
        "master_seed": scn.master_seed,
        "mode": scn.mode,
        "scenario": scn.raw,
        "stats": stats,
        "extras": extras,
    }
    return Report(summary=summary, rows=rows, traces=traces)


def _mode_extras(scn: Scenario, flags_pool: list[tuple[dict, bool]]) -> dict:
    extras: dict = {}
    bound_cfg = scn.analysis.get("theorem5")
    if bound_cfg:
        from .analysis import theorem5_bound
        extras["theorem5_bound"] = _fmt_real(theorem5_bound(
            parse_rat(bound_cfg["delta"]), parse_rat(bound_cfg["tau"])))
    if scn.mode == "two_robot" and scn.schedule_variants:
        counts = [0] * len(scn.schedule_variants)
        hits = [0] * len(scn.schedule_variants)
        for flags, gathered in flags_pool:
            v = flags.get("variant", 0)
            counts[v] += 1
            hits[v] += gathered
        extras["variant_trials"] = counts
        extras["variant_gathered"] = hits
    if scn.mode == "thm3_oracle":
        extras["oracle_runs"] = sum(1 for f, _ in flags_pool if f.get("oracle"))
        extras["oracle_gathered"] = sum(1 for f, g in flags_pool if f.get("oracle") and g)
        extras["random_runs"] = sum(1 for f, _ in flags_pool if not f.get("oracle"))
        extras["random_decides"] = sum(f.get("decides", 0) for f, _ in flags_pool
                                       if not f.get("oracle"))
    if scn.mode == "thm6":
        extras["midmove_ok_all"] = all(f.get("midmove_ok") for f, _ in flags_pool)
        extras["total_violations"] = sum(f.get("violations", 0) for f, _ in flags_pool)
    if scn.mode == "ssync":
        extras["halving_ok"] = all(f.get("halving_ok") for f, _ in flags_pool)
    if scn.mode == "lemma1":
        extras["equal_trials"] = sum(1 for f, _ in flags_pool if f.get("equal"))
    if scn.mode == "multirobot":
        extras["tie_rounds_hist"] = _hist(f.get("tie_rounds", 0) for f, _ in flags_pool)
        tie_trials = int(scn.params.get("tie_trials", 0))
        if tie_trials:
            max_rounds = int(scn.params.get("tie_max_rounds", 30))
            resolved = []
            for i in range(tie_trials):
                r = experiments.engineered_tie_trial(scn.master_seed, i, max_rounds)
                if r is not None:
                    resolved.append(r)
            extras["tie_trials"] = tie_trials
            extras["tie_max_rounds"] = max_rounds
            extras["tie_resolved"] = len(resolved)
            extras["tie_rounds_engineered_hist"] = _hist(resolved)
    return extras


def _hist(values) -> dict:
    out: dict = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return dict(sorted(out.items(), key=lambda kv: int(kv[0])))


# ----------------------------------------------------------------------
# Emission


def render_report_json(report: Report) -> str:
    return json.dumps(report.summary, sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> dict:
    return json.loads(text)


CSV_FIELDS = ["trial", "gathered", "total_looks", "phases", "attempts",
              "first_gather_time"]


def render_report_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in report.rows:
        writer.writerow(row)
    return buf.getvalue()


def emit_report(report: Report, fmt: str, out_dir) -> list[Path]:
    """Write the JSON summary and/or per-trial CSV; returns written paths."""
    if fmt not in ("json", "csv", "both"):
        raise ValueError("format must be json, csv or both")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = report.summary["name"]
    written = []
    if fmt in ("json", "both"):
        p = out / f"{name}.report.json"
        p.write_text(render_report_json(report), encoding="utf-8")
        written.append(p)
    if fmt in ("csv", "both"):
        p = out / f"{name}.trials.csv"
        p.write_text(render_report_csv(report), encoding="utf-8")
        written.append(p)
    if report.traces:
        tdir = out / f"{name}.traces"
        tdir.mkdir(exist_ok=True)
        for trial, tr in sorted(report.traces.items()):
            tp = tdir / f"trial_{trial:06d}.json"
            tp.write_text(json.dumps(tr, sort_keys=True, indent=1) + "\n",
                          encoding="utf-8")
            written.append(tp)
    return written


# ----------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gathersim",
                                     description="Rendezvous experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario", help="scenario JSON path or bundled name")
    runp.add_argument("--trials", type=int, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default="out")
    runp.add_argument("--format", default="both", choices=["json", "csv", "both"])
    runp.add_argument("--traces", default="none", choices=["none", "failed", "all"])
    runp.add_argument("--workers", type=int, default=1)
    sub.add_parser("list", help="list bundled scenarios")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in bundled_scenario_names():
            print(name)
        return 0

    path = Path(args.scenario)
    if not path.exists():
        candidate = bundled_scenario_path(args.scenario)
        if candidate.exists():
            path = candidate
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        if args.trials is not None:
            raw["trials"] = args.trials
        if args.seed is not None:
            raw["master_seed"] = args.seed
        scn = parse_scenario(json.dumps(raw))
    except FileNotFoundError:
        print(f"error: scenario {args.scenario!r} not found", file=sys.stderr)
        return 2
    except ScenarioValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(scn, workers=args.workers, trace_policy=args.traces)
        paths = emit_report(report, args.format, args.out)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    stats = report.summary["stats"]
    print(f"{scn.name}: trials={stats['trials']} gathered={stats['gathered']} "
          f"mean_total_looks={stats['mean_total_looks']}")
    for p in paths:
        print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
