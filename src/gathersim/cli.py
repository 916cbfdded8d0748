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
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from pathlib import Path

from . import __version__, experiments
from .adversary import (AdaptiveThm6, AdversaryError, ObliviousExplicit, ObliviousGenerated,
                        PerRobot, TauBounded, adversary_from_descriptor)
from .analysis import binomial_halfwidth_3sigma, mean_halfwidth_3sigma, theorem5_bound
from .engine import LOOK, MOVE_START, Budgets, RobotSpec, Trace, event_steps
from .experiments import RunSetup, run_setup
from .policies import (OPPOSITE_DIRECTIONS, SAME_DIRECTION, TAU_TRIPLE, THREE_CHOICE,
                       Deterministic, PolicyError, policy_from_descriptor)
from .rational import HALF, ONE, ZERO, Rat, derive_seed, format_rat, parse_rat


class ScenarioValidationError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


@dataclass
class Scenario:
    """A validated scenario, compiled once for every trial of a run.

    ``setups`` and ``params`` hold values already parsed from the file,
    each mode's in one pass (``_compile_mode``); the trial functions of
    ``experiments`` read only these compiled values, never ``raw``.  Every
    rational in them is a ``rational.Rat``.
    """

    name: str
    mode: str
    trials: int
    master_seed: int
    # The two-robot runs, each with its budgets in its unit: one per
    # schedule_variants entry or thm4 alpha, else one (multirobot's last
    # pair); [] in thm3_oracle and lemma1.
    setups: list[RunSetup]
    # What a trial or trace reader reads beyond the set-ups, defaults filled
    # in (ssync, thm3_oracle, lemma1, multirobot); {} in the other modes.
    params: dict
    # The Theorem 5 expected-look bound, when analysis.theorem5 asks for it.
    theorem5_bound: float | None
    raw: dict


def _fail(path: str, message: str):
    raise ScenarioValidationError(f"{path}: {message}")


# Field readers: each takes a field's value (None when it is missing) and
# its path, and returns the value checked or fails with the path.
def _integer(value, path: str, low: int | None = None, high: int | None = None) -> int:
    """An int (not a bool), at least ``low`` and at most ``high`` when given."""
    if (type(value) is not int or (low is not None and value < low)
            or (high is not None and value > high)):
        bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        _fail(path, f"integer{bounds} required")
    return value


def _rational(value, path: str, positive: bool = False) -> Rat:
    """An exact rational, above zero if ``positive``."""
    if value is None:
        _fail(path, "required")
    try:
        value = parse_rat(value)
    except ValueError as exc:
        _fail(path, str(exc))
    if positive and value <= 0:
        _fail(path, "must be positive")
    return value


def _positive_rationals(values, path: str) -> list[Rat]:
    if not isinstance(values, list):
        _fail(path, "list of rationals required")
    return [_rational(v, f"{path}[{i}]", positive=True) for i, v in enumerate(values)]


def _object(value, path: str, keys=None) -> dict:
    """An object, holding no key outside ``keys`` if given; "" is the top level's path."""
    if not isinstance(value, dict):
        _fail(path, "must be an object")
    if keys is not None:
        for key in value:
            if key not in keys:
                _fail(f"{path}.{key}" if path else key, "unknown key")
    return value


def parse_scenario(text: str) -> Scenario:
    """Validate scenario JSON and compile it into the objects its trials use."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a digit limit, deep nesting
        _fail("$", f"not valid JSON ({exc})")
    if not isinstance(raw, dict):
        _fail("$", "scenario must be a JSON object")
    _object(raw, "", ("name", "mode", "trials", "master_seed", "budgets", "analysis",
                      "policies", "robots", "adversary", "schedule_variants", "params"))

    name = raw.get("name")
    # The stem of every output file's name.
    if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z0-9._-]{1,128}", name):
        _fail("name", "required: 1 to 128 letters, digits, '.', '_' or '-'")
    mode = raw.get("mode", "two_robot")
    if not isinstance(mode, str) or mode not in experiments.TRIAL_RUNNERS:
        _fail("mode", f"unknown mode {mode!r}")
    trials = _integer(raw.get("trials", 1), "trials", 1)
    master_seed = _integer(raw.get("master_seed", 0), "master_seed")

    braw = _object(raw.get("budgets", {}), "budgets", ("max_total_looks", "max_time"))
    budgets = Budgets(
        _integer(braw.get("max_total_looks", 1000), "budgets.max_total_looks", 1),
        _rational(braw.get("max_time", "1000000000"), "budgets.max_time", positive=True))

    analysis = _object(raw.get("analysis", {}), "analysis", ("segment_attempts", "theorem5"))
    segment = analysis.get("segment_attempts", False)
    if type(segment) is not bool:
        _fail("analysis.segment_attempts", "must be true or false")

    params, setups = _compile_mode(mode, raw, segment, budgets)
    if mode != "two_robot":  # refuse the fields only a two_robot run reads
        for path in ("policies", "robots", "adversary", "schedule_variants",
                     "analysis.segment_attempts"):
            if path.rpartition(".")[2] in (analysis if "." in path else raw):
                _fail(path, f"read only in mode 'two_robot', not {mode!r}")
    if mode == "thm3_oracle" and trials != 1:
        _fail("trials", "must be 1: params.random_draws sizes a thm3_oracle run")

    bound = None
    if "theorem5" in analysis:  # only an absent key skips the bound
        t5 = _object(analysis["theorem5"], "analysis.theorem5", ("delta", "tau"))
        delta = _rational(t5.get("delta"), "analysis.theorem5.delta", positive=True)
        tau = _rational(t5.get("tau"), "analysis.theorem5.tau", positive=True)
        try:
            bound = theorem5_bound(delta, tau)
        except OverflowError as exc:
            _fail("analysis.theorem5", f"delta / tau is too large ({exc})")

    return Scenario(name=name, mode=mode, trials=trials, master_seed=master_seed,
                    setups=setups, params=params, theorem5_bound=bound, raw=raw)


def _check_robot_ids(adv, needed: set, known: set, path: str) -> None:
    """Fail unless an adversary keyed by robot id has an entry for each id
    in ``needed`` and none outside ``known``.

    A PER_ROBOT part needs only its own robot's entry.  Only the keys are
    read: no (W, C) pair is drawn.
    """
    if isinstance(adv, PerRobot):
        field, keys = "robots", adv.parts
    elif isinstance(adv, AdaptiveThm6):
        field, keys = "initial_waits", adv.initial_waits
    elif isinstance(adv, ObliviousExplicit):
        field, keys = "schedules", adv.schedules
    else:
        return
    if not needed <= set(keys) <= known:
        _fail(f"{path}.{field}", f"robot ids {sorted(keys)} must include {sorted(needed)} "
                                 f"and be among the robots' ids {sorted(known)}")
    if isinstance(adv, PerRobot):
        for rid, part in adv.parts.items():
            _check_robot_ids(part, {rid}, known, f"{path}.{field}.{rid}")


def _build(make, desc, path: str):
    """``make(desc)``, a descriptor of the wrong shape failing at ``path``."""
    try:
        return make(desc)
    except KeyError as exc:
        _fail(path, f"missing key {exc}")
    except (AdversaryError, PolicyError, ValueError, TypeError, AttributeError) as exc:
        _fail(path, str(exc))


def _compile_mode(mode: str, raw: dict, segment: bool,
                  budgets: Budgets) -> tuple[dict, list[RunSetup]]:
    """``(params, setups)``, exactly what the trials of ``mode`` read: parsed
    from ``raw`` and checked, defaults filled in, one set-up per run variant,
    each in its own unit (``experiments.run_setup``).

    A param that sizes one trial's memory (ssync's ``activations``,
    lemma1's ``cycles``, multirobot's ``n``) is capped here: past its cap a
    single trial would exhaust memory or run for minutes, which a file must
    not be able to ask for, so it fails now, with its field path.
    """
    value = raw.get("params", {})
    if mode == "two_robot":
        policies = {pname: _build(policy_from_descriptor, desc, f"policies.{pname}")
                    for pname, desc in _object(raw.get("policies", {}), "policies").items()}
        rlist = raw.get("robots")
        if not isinstance(rlist, list) or len(rlist) != 2:
            _fail("robots", "exactly two robot entries required")
        robots, robot_policies = [], {}
        for i, rdesc in enumerate(rlist):
            path = f"robots[{i}]"
            rdesc = _object(rdesc, path, ("id", "start", "speed", "policy"))
            rid = _integer(rdesc.get("id"), f"{path}.id")
            pname = rdesc.get("policy")
            if not isinstance(pname, str) or pname not in policies:
                _fail(f"{path}.policy", f"undefined policy {pname!r}")
            robots.append(RobotSpec(
                rid, _rational(rdesc.get("start", "0"), f"{path}.start"),
                _rational(rdesc.get("speed", "1"), f"{path}.speed", positive=True)))
            robot_policies[rid] = policies[pname]
        ids = {r.id for r in robots}
        if len(ids) != 2:
            _fail("robots", "robot ids must be distinct")

        adversary = raw.get("adversary")
        variants = raw.get("schedule_variants")
        if variants is not None and not isinstance(variants, list):
            _fail("schedule_variants", "must be a list")
        if adversary is None and not variants:
            _fail("adversary", "an adversary (or schedule_variants) is required")
        if variants and adversary is not None:  # checked, though the variants replace it
            _build(adversary_from_descriptor, adversary, "adversary")
        read = experiments.read_attempts if segment else None
        setups = []
        for path, desc in ([(f"schedule_variants[{i}]", v) for i, v in enumerate(variants)]
                           if variants else [("adversary", adversary)]):
            adv = _build(adversary_from_descriptor, desc, path)
            _check_robot_ids(adv, ids, ids, path)
            setups.append(run_setup(robots, robot_policies, adv, budgets, read))
        _object(value, "params", ())  # two_robot reads no params
        return {}, setups
    if mode == "ssync":
        get = _object(value, "params", ("activations", "delta")).get
        # The schedule's k-th entry holds a k-bit value: its memory is quadratic.
        activations = _integer(get("activations", 51), "params.activations", 1, 10_000)
        delta = _rational(get("delta", "1"), "params.delta", positive=True)
        half = Deterministic(HALF)
        # Its schedule sets the looks: the file's budgets are checked only.
        return {"activations": activations, "delta": delta}, [run_setup(
            [RobotSpec(0, delta, ONE), RobotSpec(1, ZERO, ONE)], {0: half, 1: half},
            ObliviousExplicit(experiments.ssync_schedule(activations, delta)),
            Budgets(activations, experiments.BIG_TIME),
            experiments.read_halving)]
    if mode == "thm3_oracle":
        get = _object(value, "params", ("random_draws", "opposite_alphas", "same_alphas")).get
        draws = _integer(get("random_draws"), "params.random_draws", 0)
        opposite = _positive_rationals(get("opposite_alphas", []), "params.opposite_alphas")
        same = _positive_rationals(get("same_alphas", []), "params.same_alphas")
        if 1 in same:
            _fail(f"params.same_alphas[{same.index(1)}]",
                  "equal speeds in the same direction never meet")
        configs = ([(a, OPPOSITE_DIRECTIONS) for a in opposite]
                   + [(a, SAME_DIRECTION) for a in same])
        if not configs:
            _fail("params.opposite_alphas", "at least one alpha required")
        return {"configs": configs, "random_draws": draws}, []
    if mode == "thm4":
        get = _object(value, "params", ("alphas", "tau", "fixed_sum", "delta")).get
        alphas = _positive_rationals(get("alphas"), "params.alphas")
        if not alphas:
            _fail("params.alphas", "at least one alpha required")
        tau = _rational(get("tau"), "params.tau", positive=True)
        fixed_sum = _rational(get("fixed_sum"), "params.fixed_sum")
        if fixed_sum <= tau:
            _fail("params.fixed_sum", "must exceed params.tau")
        delta = _rational(get("delta", "1"), "params.delta", positive=True)
        # Robot 0 is uncontrolled: it waits and computes for no time.  Each
        # trial's for_trial re-seeds robot 1's fixed-sum draws.
        adversary = PerRobot({0: ObliviousGenerated("constant", (ZERO, ZERO), 0),
                              1: TauBounded(tau, 0, fixed_sum)})
        return {}, [run_setup([RobotSpec(0, ZERO, ONE), RobotSpec(1, delta, alpha)],
                              {0: Deterministic(1 / (alpha + 1)), 1: TAU_TRIPLE},
                              adversary, budgets, experiments.read_k_histogram)
                    for alpha in alphas]
    if mode == "thm6":
        get = _object(value, "params", ("w_first", "w_second", "delta")).get
        waits = [_rational(get("w_first", "2"), "params.w_first"),
                 _rational(get("w_second", "1"), "params.w_second")]
        if waits[0] == waits[1]:
            _fail("params.w_second", "must differ from params.w_first")
        if min(waits) < 0:
            _fail("params.w_first" if waits[0] < 0 else "params.w_second",
                  "must be non-negative")
        delta = _rational(get("delta", "1"), "params.delta", positive=True)
        return {}, [run_setup([RobotSpec(0, delta, ONE), RobotSpec(1, ZERO, ONE)],
                              {0: THREE_CHOICE, 1: THREE_CHOICE},
                              AdaptiveThm6(dict(enumerate(waits))), budgets,
                              experiments.read_midmove)]
    if mode == "lemma1":
        get = _object(value, "params", ("cycles",)).get
        # A trial draws 6 * (2 * cycles + 2) values before its run starts:
        # 18 MiB and 1.1 s at 16 000 cycles (one 2-core Xeon, Python 3.11).
        return {"cycles": _integer(get("cycles", 5), "params.cycles", 1, 10_000)}, []
    # multirobot: each trial's last two entities run as robots at +1 and -1
    # in their line frame.
    get = _object(value, "params", ("n", "max_tie_rounds", "tie_trials", "tie_max_rounds")).get
    params = {"n": _integer(get("n", 8), "params.n", 2, experiments.MAX_PLANE_ROBOTS),
              "max_tie_rounds": _integer(get("max_tie_rounds", 200), "params.max_tie_rounds", 0),
              "tie_trials": _integer(get("tie_trials", 0), "params.tie_trials", 0),
              "tie_max_rounds": _integer(get("tie_max_rounds", 30), "params.tie_max_rounds", 0)}
    return params, [run_setup([RobotSpec(0, ONE, ONE), RobotSpec(1, -ONE, ONE)],
                              {0: TAU_TRIPLE, 1: TAU_TRIPLE}, TauBounded(Rat(1, 5), 0), budgets)]


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


def trace_to_jsonable(trace: Trace) -> str:
    """The text of a trace's file, rendered in one pass over its segments.

    It equals ``json.dumps(tree, sort_keys=True, indent=1)`` of the trace's
    JSON tree: ``final_status``, ``horizon``, ``look_count`` (robot id as a
    string key) and ``events``, each event with its ``kind``, ``payload``,
    ``robot`` and ``time``, rationals written by ``format_rat``.  The events
    come from ``engine.event_steps``, each with its cycle segment, and each
    kind has its own template filled from the segment: a LOOK's ``own`` and
    ``observed`` are the segment's ``origin`` and ``observed``, a
    MOVE_START's ``lam`` and ``destination`` its own, and the ``position``
    of a MOVE_END or DECIDE_GATHERED the ``destination`` (a deciding
    segment's destination is its origin).  No event list is built.  Times
    and positions are written in the scenario's unit: a run in a finer one
    (``trace.unit``) has them divided back.
    """
    unit = trace.unit
    fmt = format_rat if unit == 1 else lambda x: format_rat(x / unit)
    events = []
    for t, kind, rid, seg in event_steps(trace):
        if kind == LOOK:
            events.append(
                f'  {{\n   "kind": "LOOK",\n   "payload": {{\n    "cycle": {seg.cycle},\n'
                f'    "observed": [\n     "{fmt(seg.observed)}"\n    ],\n'
                f'    "own": "{fmt(seg.origin)}"\n   }},\n'
                f'   "robot": {rid},\n   "time": "{fmt(t)}"\n  }}')
        elif kind == MOVE_START:
            events.append(
                f'  {{\n   "kind": "MOVE_START",\n   "payload": {{\n    "cycle": {seg.cycle},\n'
                f'    "destination": "{fmt(seg.destination)}",\n'
                f'    "lam": "{format_rat(seg.lam)}"\n   }},\n'
                f'   "robot": {rid},\n   "time": "{fmt(t)}"\n  }}')
        else:  # MOVE_END and DECIDE_GATHERED
            events.append(
                f'  {{\n   "kind": "{kind}",\n   "payload": {{\n    "cycle": {seg.cycle},\n'
                f'    "position": "{fmt(seg.destination)}"\n   }},\n'
                f'   "robot": {rid},\n   "time": "{fmt(t)}"\n  }}')
    looks = [f'  "{rid}": {n}'
             for rid, n in sorted((str(rid), n) for rid, n in trace.look_count.items())]
    return (f'{{\n "events": {_block("[", events, "]")},\n'
            f' "final_status": "{trace.final_status}",\n'
            f' "horizon": "{fmt(trace.horizon)}",\n'
            f' "look_count": {_block("{", looks, "}")}\n}}')


def _block(open_, items: list[str], close: str) -> str:
    """A JSON list or object at depth 1, its items already rendered."""
    if not items:
        return open_ + close
    return f"{open_}\n" + ",\n".join(items) + f"\n {close}"


def _run_chunk(scn: Scenario, trial_indices: list[int], keep_traces: str):
    """Worker entry: run a batch of trials of a compiled scenario.

    A kept trace comes back as its file's text, the others are dropped.
    """
    out = []
    for t in trial_indices:
        try:
            outcome = experiments.run_one_trial(scn, t)
        except Exception as exc:  # noqa: BLE001 - re-raised, naming the trial
            seeds = ", ".join(f"{label} seed {derive_seed(scn.master_seed, t, label)}"
                              for label in ("adv", "alg"))
            raise RuntimeError(f"trial {t} ({seeds}): {exc}") from exc
        keep = keep_traces == "all" or (keep_traces == "failed" and not outcome.gathered)
        trace_text = trace_to_jsonable(outcome.trace) if (keep and outcome.trace) else None
        outcome.trace = None
        out.append((outcome, trace_text))
    return out


@dataclass
class Report:
    summary: dict
    rows: list[dict]
    # trial -> the text of its trace file
    traces: dict


def run_experiment(scn: Scenario, *, workers: int = 1,
                   trace_policy: str = "none") -> Report:
    """Execute all trials and assemble the deterministic report."""
    n = experiments.total_trials(scn)
    indices = list(range(n))
    batches = []
    if workers > 1 and n > 1:
        chunk = max(1, (n + workers - 1) // workers)
        chunks = [indices[i:i + chunk] for i in range(0, n, chunk)]
        # Imported here: the pool's modules (multiprocessing, logging) would
        # otherwise load on every start, also for a serial run.
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts every process at once: no more than chunks or cores.
        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            for part in pool.map(_run_chunk, [scn] * len(chunks), chunks,
                                 [trace_policy] * len(chunks)):
                batches.extend(part)
    else:
        batches = _run_chunk(scn, indices, trace_policy)

    # In trial order: each chunk is ascending, and pool.map keeps the chunks' order.
    rows = []
    traces = {}
    for outcome, trace_text in batches:
        rows.append({
            "trial": outcome.trial,
            "gathered": 1 if outcome.gathered else 0,
            "total_looks": outcome.total_looks,
            "phases": outcome.n_phases if outcome.n_phases is not None else "",
            "attempts": outcome.n_attempts if outcome.n_attempts is not None else "",
            "first_gather_time": (format_rat(outcome.first_gather_time)
                                  if outcome.first_gather_time is not None else ""),
        })
        if trace_text is not None:
            traces[outcome.trial] = trace_text

    outcomes = [outcome for outcome, _ in batches]
    stats = pool_outcomes(outcomes)
    extras = _mode_extras(scn, outcomes)
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


def pool_outcomes(outcomes: list[experiments.TrialOutcome]) -> dict:
    """The report's "stats": a batch of trial outcomes pooled.

    The trials' ``stats`` shares hold only completed attempts and terminal
    phases made of them; trailing partial structures are what the finite
    horizon cut off, not what the expectations range over.
    """
    n = len(outcomes)
    if not n:
        raise ValueError("no trials to pool")
    looks = [outcome.total_looks for outcome in outcomes]
    gathered = sum(outcome.gathered for outcome in outcomes)
    shares = pool_shares(outcome.stats for outcome in outcomes)
    attempts = shares.get("n_attempts", 0)
    phase_looks = shares.get("phase_looks", ())

    frac = Rat(gathered, n)
    success = shares["attempt_successes"] / attempts if attempts else None
    per_phase = (sum(phase_looks) / len(phase_looks)) if phase_looks else None
    halfwidth = {
        "gathered_fraction": _fmt_real(binomial_halfwidth_3sigma(float(frac), n)),
        "mean_total_looks": _fmt_real(mean_halfwidth_3sigma(looks)),
    }
    if success is not None:
        halfwidth["mean_attempt_success_rate"] = _fmt_real(
            binomial_halfwidth_3sigma(success, attempts))
    if per_phase is not None:
        halfwidth["mean_looks_per_phase"] = _fmt_real(mean_halfwidth_3sigma(phase_looks))

    return {
        "trials": n,
        "gathered": gathered,
        "gathered_fraction": format_rat(frac),
        "gathered_fraction_real": _fmt_real(float(frac)),
        "mean_total_looks": _fmt_real(sum(looks) / n),
        "mean_attempt_success_rate": None if success is None else _fmt_real(success),
        "mean_looks_per_phase": None if per_phase is None else _fmt_real(per_phase),
        "n_attempts": attempts,
        "n_phases": len(phase_looks),
        "halfwidth_3sigma": halfwidth,
        "attempts_per_phase_hist": shares.get("attempts_per_phase_hist", {}),
        "k_histogram": shares.get("k_histogram", {}),
    }


def pool_shares(shares) -> dict:
    """Trials' share dicts pooled key by key: bools by ``all``, ints summed,
    tuples joined into one list in trial order, and str -> count histograms
    summed per key, keys in sorted order."""
    pooled: dict = {}
    for share in shares:
        for key, value in share.items():
            if key not in pooled:  # copies, so += never changes a trial's share
                pooled[key] = (Counter(value) if isinstance(value, dict)
                               else list(value) if isinstance(value, tuple) else value)
            elif isinstance(value, bool):
                pooled[key] = pooled[key] and value
            else:  # an int, a tuple joined to its list, or a histogram to its Counter
                pooled[key] += value
    return {key: dict(sorted(value.items())) if isinstance(value, dict) else value
            for key, value in pooled.items()}


def _mode_extras(scn: Scenario, outcomes: list[experiments.TrialOutcome]) -> dict:
    """The report's "extras": the pooled trial extras, plus what no single
    trial holds."""
    extras = pool_shares(outcome.extras for outcome in outcomes)
    if scn.theorem5_bound is not None:
        extras["theorem5_bound"] = _fmt_real(scn.theorem5_bound)
    if scn.raw.get("schedule_variants"):  # a thm4 run's alphas report no variant counts
        # Variant v runs trials v * scn.trials up to (v + 1) * scn.trials - 1.
        hits = [0] * len(scn.setups)
        for outcome in outcomes:
            hits[outcome.trial // scn.trials] += outcome.gathered
        extras["variant_trials"] = [scn.trials] * len(scn.setups)
        extras["variant_gathered"] = hits
    if scn.mode == "multirobot":
        tie_trials = scn.params["tie_trials"]
        if tie_trials:
            max_rounds = scn.params["tie_max_rounds"]
            resolved = []
            for i in range(tie_trials):
                r = experiments.engineered_tie_trial(scn.master_seed, i, max_rounds)
                if r is not None:
                    resolved.append(r)
            extras["tie_trials"] = tie_trials
            extras["tie_max_rounds"] = max_rounds
            extras["tie_resolved"] = len(resolved)
            hist = Counter(str(r) for r in resolved)
            extras["tie_rounds_engineered_hist"] = dict(sorted(hist.items()))
    return extras


# ----------------------------------------------------------------------
# Emission


def render_report_json(report: Report) -> str:
    return json.dumps(report.summary, sort_keys=True, indent=2) + "\n"


CSV_FIELDS = ["trial", "gathered", "total_looks", "phases", "attempts",
              "first_gather_time"]


def render_report_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows(map(itemgetter(*CSV_FIELDS), report.rows))
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
        for trial, text in sorted(report.traces.items()):
            tp = tdir / f"trial_{trial:06d}.json"
            tp.write_text(text + "\n", encoding="utf-8")
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
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2

    path = Path(args.scenario)
    if not path.exists():
        candidate = bundled_scenario_path(args.scenario)
        if candidate.exists():
            path = candidate
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        print(f"error: scenario {args.scenario!r} not found", file=sys.stderr)
        return 2
    except UnicodeDecodeError:
        print(f"error: cannot read scenario {str(path)!r}: not UTF-8 text", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory, no permission
        print(f"error: cannot read scenario {str(path)!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError):
        raw = None  # parse_scenario reports it
    if isinstance(raw, dict):  # the flags override a scenario object only
        if args.trials is not None:
            raw["trials"] = args.trials
        if args.seed is not None:
            raw["master_seed"] = args.seed
        text = json.dumps(raw)
    try:
        scn = parse_scenario(text)
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
