"""gathersim benchmark: serial Monte Carlo batches through the public CLI API.

Usage:
    python3 bench/run.py --workload short_batch --seed 7 --seconds 20 --trace 0

One process runs one workload.  A batch is `cli.parse_scenario` on the
workload's scenario JSON, `cli.run_experiment(workers=1)` and
`cli.emit_report` into a scratch directory of the checkout.  Batches run
for `--seconds`.

--trace 0 prints the end-to-end metrics, measured untraced.  Batch i uses
          master_seed `--seed + i * SEED_STRIDE`, so one run averages over
          many inputs.  Times are scaled to a reference machine speed
          (see speed.py).
--trace 1 alternates an untraced and a traced batch, both at `--seed`, and
          prints the per-layer metrics of the traced ones (see tracer.py).

Every run also checks the program's outputs: golden SHA-256 digests of a
small batch at the scenario's own seed, the workload's invariants on every
batch, traced output bytes equal to untraced ones, and exact counts that
repeat across traced batches.  The last line of stdout is one JSON object;
the exit code is 1 when any check failed and 2 when the package cannot be
found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import kernel_seconds, scaled
from tracer import Tracer
from workloads import WORKLOADS, check_report, default_seed, scenario_text

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_ROOT = ROOT / ".bench_out"

SETUP_PROBES = 9  # measured fresh processes per run, after one warm-up
SEED_STRIDE = 1_000_003  # untraced batch i of a run uses seed + i * SEED_STRIDE

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_share": "share",
}

PER_LAYER = {
    "cli.parse_s": "s",
    "cli.pool_s": "s",
    "cli.trace_json_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "experiments.trial_s": "s",
    "experiments.self_s": "s",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_ms_tail": "ms",
    "experiments.trial_tail_pct": "%",
    "experiments.trial_samples": "count",
    "adversary.build_calls": "count",
    "adversary.build_s": "s",
    "adversary.draw_calls": "count",
    "adversary.draw_s": "s",
    "policies.build_s": "s",
    "policies.sample_calls": "count",
    "policies.sample_s": "s",
    "engine.run_calls": "count",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.events": "count",
    "engine.looks": "count",
    "engine.events_per_s": "1/s",
    "engine.status.gathered": "count",
    "engine.status.look_budget": "count",
    "engine.status.time_budget": "count",
    "analysis.segment_s": "s",
    "analysis.distance_s": "s",
    "analysis.attempts": "count",
    "analysis.midmove_s": "s",
    "rational.parse_calls": "count",
    "rational.parse_s": "s",
    "rational.rng_calls": "count",
    "rational.rng_s": "s",
    "rational.peak_den_bits": "bits",
    "bench.trace_overhead": "share",
}

# Per-layer metrics that are exact counts of work: each traced batch of a
# run must reproduce them exactly.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER.items()
                     if unit in ("count", "bits", "bytes")
                     and name != "experiments.trial_samples")

_STATUS_METRIC = {
    "GATHERED": "engine.status.gathered",
    "LOOK_BUDGET_EXHAUSTED": "engine.status.look_budget",
    "TIME_BUDGET_EXHAUSTED": "engine.status.time_budget",
}


class PackageNotFound(RuntimeError):
    pass


def load_cli():
    """Import gathersim.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "gathersim" / "__init__.py").is_file():
        raise PackageNotFound(f"no gathersim package under {SRC}")
    sys.path.insert(0, str(SRC))
    from gathersim import cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise PackageNotFound(f"gathersim imported from {cli.__file__}, not {SRC}")
    return cli


# ----------------------------------------------------------------------
# Batches


def file_digests(out_dir: Path, name: str) -> dict:
    """SHA-256 of report.json, trials.csv and, jointly, every trace file."""
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    trace_dir = out_dir / f"{name}.traces"
    traces = sorted(trace_dir.iterdir()) if trace_dir.is_dir() else []
    joint = hashlib.sha256()
    for path in traces:
        joint.update(f"{path.name} {sha(path)}\n".encode())
    return {
        "report.json": sha(out_dir / f"{name}.report.json"),
        "trials.csv": sha(out_dir / f"{name}.trials.csv"),
        "traces": joint.hexdigest(),
        "trace_files": len(traces),
    }


@dataclass
class Batch:
    seconds: float
    trials: int
    digests: dict
    layers: dict = field(default_factory=dict)
    span_calls: dict = field(default_factory=dict)
    trial_durations: list = field(default_factory=list)


class Session:
    """Runs one workload's batches, checks them and tallies failures."""

    def __init__(self, cli, workload, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, trials: int, message: str) -> None:
        """Record a failed check; `trials` of the attempted ones count as failed."""
        self.failed += trials
        self.errors.append(message)
        print(f"[bench] {self.workload.name}: CHECK FAILED: {message}",
              file=sys.stderr, flush=True)

    def batch(self, seed: int, size: str, tracer: Tracer | None = None) -> Batch | None:
        """One checked batch; None when it raised or failed an invariant."""
        wl = self.workload
        trials = wl.total_trials(size)
        self.attempted += trials
        text = scenario_text(self.cli, wl, seed, size)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        try:
            if tracer is not None:
                tracer.reset()
                tracer.install()
            try:
                start = perf_counter()
                scn = self.cli.parse_scenario(text)
                report = self.cli.run_experiment(scn, workers=1,
                                                 trace_policy=wl.trace_policy)
                self.cli.emit_report(report, "both", self.out_dir)
                seconds = perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.restore()
            name = scn.name
            summary = json.loads((self.out_dir / f"{name}.report.json").read_text())
            digests = file_digests(self.out_dir, name)
            errors = check_report(wl, size, summary)
            with open(self.out_dir / f"{name}.trials.csv", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
        except Exception:  # noqa: BLE001 - a raising batch is a failed batch
            self.fail(trials, traceback.format_exc())
            return None
        if rows != trials:
            errors.append(f"trials.csv has {rows} rows, expected {trials}")
        want_traces = trials if wl.trace_policy == "all" else 0
        if digests["trace_files"] != want_traces:
            errors.append(f"{digests['trace_files']} trace files, expected {want_traces}")
        if errors:
            self.fail(trials, "; ".join(errors))
            return None
        out = Batch(seconds, trials, digests)
        if tracer is not None:
            out.layers = layer_metrics(tracer)
            out.span_calls = {name: st.calls for name, st in tracer.stats.items()}
            out.trial_durations = tracer.durations["experiments.trial"]
        return out

    def same_bytes(self, batch: Batch, expected: dict, what: str) -> bool:
        keys = ("report.json", "trials.csv", "traces", "trace_files")
        diff = [k for k in keys if batch.digests[k] != expected[k]]
        if diff:
            self.fail(batch.trials, f"{what}: {', '.join(diff)} differ")
        return not diff

    def golden_check(self, golden: dict, size: str, tracer: Tracer | None = None) -> bool:
        """Batch at the scenario's own seed against the recorded digests."""
        entry = golden[self.workload.name]
        batch = self.batch(entry["seed"], size, tracer)
        label = "traced" if tracer else "untraced"
        return batch is not None and self.same_bytes(
            batch, entry[size], f"{label} {size} batch at seed {entry['seed']} vs the "
                                f"golden digests recorded at {entry[size]['trials']} trials")


def golden_reference(golden: dict, name: str, seed: int, size: str) -> dict | None:
    """Recorded digests of a bench-size batch at `seed`, if there are any."""
    entry = golden[name]
    return entry["bench"] if size == "bench" and seed == entry["seed"] else None


def timed_loop(seconds: float, min_steps: int, step) -> list:
    """Call `step` until the next call would end past `seconds`; stop on None."""
    results = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        result = step()
        if result is None:
            break
        results.append(result)
        now = perf_counter()
        if len(results) >= min_steps and (now - start) + (now - t0) > seconds:
            break
    return results


# ----------------------------------------------------------------------
# Per-layer metrics


def _engine_hook(trace, counts) -> None:
    counts["engine.events"] = counts.get("engine.events", 0) + len(trace.events)
    counts["engine.looks"] = counts.get("engine.looks", 0) + sum(trace.look_count.values())
    status = _STATUS_METRIC[trace.final_status]
    counts[status] = counts.get(status, 0) + 1
    bits = counts.get("rational.peak_den_bits", 0)
    for event in trace.events:
        bits = max(bits, event.time.denominator.bit_length())
        for key in ("own", "observed", "position", "destination"):
            value = event.payload.get(key)
            for x in value if isinstance(value, tuple) else (value,):
                if x is not None:
                    bits = max(bits, x.denominator.bit_length())
    counts["rational.peak_den_bits"] = bits


def _segment_hook(attempts, counts) -> None:
    counts["analysis.attempts"] = counts.get("analysis.attempts", 0) + len(attempts)


def _emit_hook(paths, counts) -> None:
    size = sum(Path(p).stat().st_size for p in paths)
    counts["cli.output_bytes"] = counts.get("cli.output_bytes", 0) + size


def new_tracer() -> Tracer:
    return Tracer(hooks={"engine.run": _engine_hook,
                         "analysis.segment": _segment_hook,
                         "cli.emit": _emit_hook},
                  keep=("experiments.trial",))


def layer_metrics(tracer: Tracer) -> dict:
    """One traced batch's per-layer metrics (all but the pooled ones)."""
    s = tracer.stat
    wait, delay = s("adversary.wait"), s("adversary.delay")
    sample, dest = s("policies.sample"), s("policies.destination")
    run = s("engine.run")
    counts = tracer.counts
    m = {
        "cli.parse_s": s("cli.parse").total,
        "cli.pool_s": s("cli.run_experiment").self_time,
        "cli.trace_json_s": s("cli.trace_json").total,
        "cli.emit_s": s("cli.emit").total,
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "experiments.trial_s": s("experiments.trial").total,
        "experiments.self_s": s("experiments.trial").self_time,
        "adversary.build_calls": s("adversary.build").calls,
        "adversary.build_s": s("adversary.build").total,
        "adversary.draw_calls": wait.calls + delay.calls,
        "adversary.draw_s": wait.total + delay.total,
        "policies.build_s": s("policies.build").total,
        "policies.sample_calls": sample.calls + dest.calls,
        "policies.sample_s": sample.total + dest.total,
        "engine.run_calls": run.calls,
        "engine.run_s": run.total,
        "engine.self_s": run.self_time,
        "engine.events_per_s": (counts.get("engine.events", 0) / run.total
                                if run.total else 0.0),
        "analysis.segment_s": s("analysis.segment").total,
        "analysis.distance_s": s("analysis.distance").total,
        "analysis.midmove_s": s("analysis.midmove").total,
        "rational.parse_calls": s("rational.parse").calls,
        "rational.parse_s": s("rational.parse").total,
        "rational.rng_calls": s("rational.rng").calls,
        "rational.rng_s": s("rational.rng").total,
    }
    for name in EXACT_COUNTS:
        m.setdefault(name, counts.get(name, 0))
    return m


def percentile(ordered: list, pct: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(0, math.ceil(len(ordered) * pct / 100.0) - 1)]


def tail_percentile(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest of p50, p90, p99, p99.9, p99.99 with
    at least ten samples beyond it; p50 when there are fewer than twenty."""
    ordered = sorted(samples)
    pct = 50.0
    for candidate in (90.0, 99.0, 99.9, 99.99):
        if len(ordered) * (100.0 - candidate) / 100.0 >= 10:
            pct = candidate
    return pct, percentile(ordered, pct)


# ----------------------------------------------------------------------
# The two kinds of run


def setup_seconds(workload_name: str, seed: int, size: str) -> float:
    """Median speed-scaled set-up time over fresh processes, after a warm-up."""
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name,
             str(seed), size],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True)
        if i:
            setup, kernel = map(float, done.stdout.split())
            times.append(scaled(setup, kernel))
    return statistics.median(times)


def untraced_run(session: Session, golden: dict, seed: int, size: str,
                 seconds: float) -> dict:
    wl = session.workload
    try:
        setup = setup_seconds(wl.name, seed, size)
    except (subprocess.SubprocessError, ValueError) as exc:
        session.fail(0, f"set-up probe failed: {exc!r} {getattr(exc, 'stderr', '')}")
        return {}
    if not session.golden_check(golden, "smoke"):
        return {}
    golden_bench = golden_reference(golden, wl.name, seed, size)
    kernels = [kernel_seconds()]

    def step():
        # Every batch draws fresh inputs, so one run averages over many
        # seeds; the first batch runs at `seed` itself.
        batch_seed = seed + (len(kernels) - 1) * SEED_STRIDE
        batch = session.batch(batch_seed, size)
        if batch is None:
            return None
        kernels.append(kernel_seconds())
        print(f"[bench] {wl.name}: seed {batch_seed}: {batch.trials} trials in "
              f"{batch.seconds:.4f} s, speed kernel {kernels[-1]:.4f} s",
              file=sys.stderr, flush=True)
        if len(kernels) == 2 and golden_bench and not session.same_bytes(
                batch, golden_bench, "bench batch at the golden seed"):
            return None
        return batch.trials, scaled(batch.seconds, (kernels[-2] + kernels[-1]) / 2)

    batches = timed_loop(seconds, 3, step)
    if session.errors or not batches:
        return {}
    return {
        "trials_per_s": sum(t for t, _ in batches) / sum(s for _, s in batches),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(session: Session, golden: dict, seed: int, size: str,
               seconds: float) -> dict:
    wl = session.workload
    if not (session.golden_check(golden, "smoke")
            and session.golden_check(golden, "smoke", new_tracer())):
        return {}
    tracer = new_tracer()
    golden_bench = golden_reference(golden, wl.name, seed, size)
    traced_batches = []

    def step():
        plain = session.batch(seed, size)
        if plain is None or (golden_bench and not session.same_bytes(
                plain, golden_bench, "bench batch at the golden seed")):
            return None
        traced = session.batch(seed, size, tracer)
        if traced is None or not session.same_bytes(traced, plain.digests,
                                                    "traced vs untraced batch"):
            return None
        if not traced_batches:
            silent = [n for n in wl.active_spans if not traced.span_calls.get(n)]
            if silent:
                session.fail(traced.trials, "no calls recorded by "
                             + ", ".join(silent) + " (renamed or no longer called?)")
                return None
        else:
            first = traced_batches[0].layers
            moved = [n for n in EXACT_COUNTS if traced.layers[n] != first[n]]
            if moved:
                session.fail(traced.trials, "exact counts did not repeat: " + ", ".join(
                    f"{n} {first[n]} -> {traced.layers[n]}" for n in moved))
                return None
        traced_batches.append(traced)
        return plain, traced

    pairs = timed_loop(seconds, 2, step)
    if session.errors or not pairs:
        return {}
    traced = [t for _, t in pairs]
    metrics = {name: (traced[0].layers[name] if name in EXACT_COUNTS
                      else statistics.median(b.layers[name] for b in traced))
               for name in traced[0].layers}
    durations_ms = [d * 1000.0 for b in traced for d in b.trial_durations]
    pct, tail = tail_percentile(durations_ms)
    metrics.update({
        "experiments.trial_ms_p50": percentile(sorted(durations_ms), 50.0),
        "experiments.trial_ms_tail": tail,
        "experiments.trial_tail_pct": pct,
        "experiments.trial_samples": len(durations_ms),
        "bench.trace_overhead": (statistics.median(t.seconds for t in traced)
                                 / statistics.median(p.seconds for p, _ in pairs) - 1.0),
    })
    return metrics


def result_line(session: Session, names: dict, values: dict) -> str:
    attempted = max(session.attempted, 1)
    values = dict(values, passed_share=1.0 - session.failed / attempted)
    return json.dumps({
        "correct": not session.errors,
        "attempted": attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in names.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master_seed of the timed batches "
                             "(default: the scenario file's own)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench",
                        help="trials per batch; smoke is the tiny size for tests")
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except PackageNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = default_seed(cli, workload) if args.seed is None else args.seed
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    out_dir = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    session = Session(cli, workload, out_dir)
    try:
        if args.trace:
            values = traced_run(session, golden, seed, args.size, args.seconds)
            names = PER_LAYER
        else:
            values = untraced_run(session, golden, seed, args.size, args.seconds)
            names = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    print(result_line(session, names, values))
    return 1 if session.errors else 0


if __name__ == "__main__":
    sys.exit(main())
