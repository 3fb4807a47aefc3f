#!/usr/bin/env python3
"""AERO fleet benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload continual-night --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures the per-layer metrics (an untraced and a traced half of the
measured time, plus a counting pass).  Human-readable lines come first; the
last line of standard output is the JSON result.  The exit code is 1 when
any correctness check fails.  See ``perfbench/NOTES.md``.
"""

import os

# Thread counts are fixed before numpy loads: one BLAS/OpenMP thread, so the
# single caller thread is the only compute thread (a closed loop on one core).
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bench  # noqa: E402
from spans import Instrumentation, SpanRecorder, SpanTable  # noqa: E402

STATE = ROOT / ".perfbench"
TRACE_ROUNDS = 4
TAIL_PCT, TAIL_GROUP = 90, 100


class CountingHandler(logging.Handler):
    """Formats and counts every ``repro.*`` log record; writes nothing."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.setFormatter(logging.Formatter("%(levelname)s %(name)s %(message)s"))
        self.count = 0

    def emit(self, record):
        self.format(record)
        self.count += 1


def route_logs() -> CountingHandler:
    handler = CountingHandler()
    logger = logging.getLogger("repro")
    logger.handlers[:] = [handler]
    logger.setLevel(logging.WARNING)
    logger.propagate = False
    return handler


def code_digest() -> str:
    """Digest of the program and benchmark sources (keys the counts file)."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(workload: str, seed: int, counts: dict) -> list[str]:
    """Deterministic counts must equal those of earlier runs of the same code and seed."""
    path = STATE / "counts" / f"{workload}-seed{seed}-{code_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    counts = json.loads(json.dumps(counts))          # tuples read back as lists
    known = json.loads(path.read_text()) if path.exists() else {}
    mismatches = [
        f"{key}: {known[key]} before, {value} now"
        for key, value in counts.items()
        if key in known and known[key] != value
    ]
    if not mismatches:
        staged = path.with_suffix(f".{os.getpid()}.tmp")
        staged.write_text(json.dumps({**known, **counts}, sort_keys=True))
        staged.replace(path)
    return mismatches


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def tail(latencies) -> tuple[float, int]:
    """p90 latency of consecutive groups of at least 100 ticks, median over groups.

    100 ticks is the fewest that put 10 ticks beyond p90.  The median over
    groups keeps seconds of heavy host contention from setting the tail of
    the whole run.  Returns the value and the number of groups.
    """
    values = np.asarray(latencies)
    groups = np.array_split(values, max(1, len(values) // TAIL_GROUP))
    return float(np.median([np.percentile(g, TAIL_PCT) for g in groups])), len(groups)


def end_to_end(workload, scenario, setups, phase, peak_rss_mb) -> dict:
    tail_value, groups = tail(phase.latencies)
    return {
        "setup_s": (statistics.median(s["setup"] for s in setups), "s"),
        "fit_s": (statistics.median(s["fit"] for s in setups), "s"),
        "stars_per_s": (phase.ticks * scenario.num_stars / phase.wall, "stars/s"),
        "tick_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "tick_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, f"p{TAIL_PCT} of {groups} groups of >= {TAIL_GROUP} ticks, median over the groups"


def outcome_metrics(phase, quality_report, failed_ticks, attempted) -> dict:
    """End-to-end outcomes the bounded metrics cannot carry (see NOTES.md)."""
    return {
        "retrain_s": (statistics.median(phase.retrains) if phase.retrains else 0.0, "s"),
        "cycle_s": (statistics.median(phase.cycle_ticks) if phase.cycle_ticks else 0.0, "s"),
        "event_recall": (quality_report["event_recall"], "ratio"),
        "event_precision": (quality_report["event_precision"], "ratio"),
        "quiet_false_alerts": (quality_report["quiet_false_alerts"], "count"),
        "failed_tick_frac": (failed_ticks / attempted, "ratio"),
    }


def per_layer(workload, scenario, served, table: SpanTable, traced, untraced,
              setup_times, ref, fit_counts) -> dict:
    ticks = traced.ticks
    in_tick = {"in_tick": True}

    def per_tick(name, **where):
        return table.total(name, **in_tick, **where) * 1e3 / ticks

    def per_call(name):
        calls = table.count(name, **in_tick)
        return table.total(name, **in_tick) * 1e3 / calls if calls else 0.0

    forward = per_tick("runtime.forward")
    temporal = per_tick("runtime.temporal")
    noise = per_tick("runtime.noise")
    fit = {"context": "setup.fit"}
    fit_ms = table.total("setup.fit") * 1e3
    train_fwd = table.total("training.forward", **fit) * 1e3
    train_bwd = table.total("training.backward", **fit) * 1e3
    train_opt = table.total("training.optimizer", **fit) * 1e3
    gflop = bench.gflop_per_tick(served.engine, workload.num_shards)
    counts = ref.counts
    decisions = [kind for _step, kind in ref.decisions]
    # Median tick latencies, not tick rates: on continual-night a stretch's
    # rate depends on whether a loop cycle fell inside it.
    overhead = float(np.median(traced.latencies) / np.median(untraced.latencies) - 1.0)
    return {
        "streaming.step_ms": (per_tick("streaming.step"), "ms"),
        "streaming.self_ms": (table.self_total("streaming.step", **in_tick) * 1e3 / ticks, "ms"),
        "streaming.alerts_ms": (per_tick("streaming.alerts"), "ms"),
        "streaming.masked_frac": (counts["masked_cells"] / counts["cells"], "ratio"),
        "streaming.alerts_fired": (counts["alerts_fired"], "count"),
        "streaming.log_records": (counts["log_records"], "count"),
        "runtime.forward_ms": (forward, "ms"),
        "runtime.temporal_ms": (temporal, "ms"),
        "runtime.temporal_self_ms": (
            table.self_total("runtime.temporal", **in_tick) * 1e3 / ticks, "ms"),
        "runtime.time_embed_ms": (per_tick("runtime.time_embed"), "ms"),
        "runtime.encoder_attention_ms": (per_tick("runtime.encoder_attention"), "ms"),
        "runtime.encoder_ffn_ms": (per_tick("runtime.encoder_ffn"), "ms"),
        "runtime.encoder_norm_ms": (per_tick("runtime.encoder_norm"), "ms"),
        "runtime.decoder_attention_ms": (per_tick("runtime.decoder_attention"), "ms"),
        "runtime.decoder_ffn_ms": (per_tick("runtime.decoder_ffn"), "ms"),
        "runtime.decoder_norm_ms": (per_tick("runtime.decoder_norm"), "ms"),
        "runtime.output_ffn_ms": (per_tick("runtime.output_ffn"), "ms"),
        "runtime.score_head_ms": (forward - temporal - noise, "ms"),
        "runtime.noise_ms": (noise, "ms"),
        "runtime.calls_per_tick": (counts["calls"] / counts["ticks"], "count"),
        "runtime.gflop_per_tick": (gflop, "GFLOP"),
        "runtime.gflops": (gflop / (forward / 1e3), "GFLOP/s"),
        "training.forward_ms": (train_fwd, "ms"),
        "training.backward_ms": (train_bwd, "ms"),
        "training.optimizer_ms": (train_opt, "ms"),
        "training.self_ms": (fit_ms - train_fwd - train_bwd - train_opt, "ms"),
        "training.batches": (fit_counts["steps"], "count"),
        "training.tensors_created": (fit_counts["tensors"], "count"),
        "setup.calibrate_ms": (setup_times["calibrate"] * 1e3, "ms"),
        "setup.compile_ms": (setup_times["compile"] * 1e3, "ms"),
        "loop.retrain_ms": (per_call("loop.retrain"), "ms"),
        "loop.canary_ms": (per_call("loop.canary"), "ms"),
        "loop.publish_ms": (per_call("loop.publish"), "ms"),
        "loop.deploy_ms": (per_call("loop.deploy"), "ms"),
        "loop.registry_bytes": (ref.registry_bytes, "bytes"),
        "loop.cycles": (decisions.count("trigger"), "count"),
        "loop.promotions": (decisions.count("promote"), "count"),
        "loop.canary_fails": (decisions.count("canary_fail"), "count"),
        "loop.rollbacks": (decisions.count("rollback"), "count"),
        "obs.drift_update_ms": (per_tick("obs.drift_update"), "ms"),
        "obs.drift_trips": (counts["drift_trips"], "count"),
        "obs.trace_overhead_pct": (overhead * 100.0, "%"),
    }


def breakdown(table: SpanTable, ticks: int) -> list[str]:
    """Self time of every span inside ``streaming.step``; they sum to the step."""
    inside = table.context == "streaming.step"
    names = sorted(set(table.names[inside & (table.ticks >= 0)]))
    step = table.total("streaming.step", in_tick=True) * 1e3 / ticks
    lines = ["traced tick breakdown inside streaming.step (self ms per tick):"]
    accounted = 0.0
    for name in names:
        value = table.self_total(name, context="streaming.step", in_tick=True) * 1e3 / ticks
        accounted += value
        lines.append(f"  {name:32s} {value:10.4f}")
    lines.append(f"  {'residual':32s} {step - accounted:10.4f}")
    lines.append(f"  {'= streaming.step_ms':32s} {step:10.4f}")
    outside = table.total("tick", in_tick=True) * 1e3 / ticks - step
    lines.append(f"  tick time outside streaming.step (caller, loop): {outside:.4f} ms")
    return lines


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(args, log_counter, lines) -> tuple[bool, int, int, dict]:
    workload = bench.WORKLOADS[args.workload]
    scenario = workload.scenario(args.seed)
    tmpdir = STATE / "tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workload, scenario, tmpdir, log_counter, lines)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _run(args, workload, scenario, tmpdir, log_counter, lines):
    problems: list[str] = []
    if not args.trace:
        setups = []
        served = None
        for _ in range(bench.SETUP_REPEATS):
            candidate, times = bench.set_up(workload, scenario, tmpdir, args.seed)
            setups.append(times)
            if served is None:
                served = candidate
            elif candidate.threshold != served.threshold:
                problems.append("set-up repeats calibrated different thresholds")
        bench.warm_up(workload, scenario, served, tmpdir, args.seed)
        phase = bench.serve(workload, scenario, served, tmpdir, args.seed, args.seconds)
        phases = [phase]
    else:
        recorder = SpanRecorder()
        with Instrumentation(recorder) as inst:
            inst.training()
            served, setup_times = bench.set_up(workload, scenario, tmpdir, args.seed, recorder)
        bench.warm_up(workload, scenario, served, tmpdir, args.seed)
        # Untraced and traced stretches alternate, so that drift in the
        # machine's speed does not land on one side of the overhead figure.
        untraced, traced = bench.Phase(), bench.Phase()
        stretch = args.seconds / (2 * TRACE_ROUNDS)
        for _ in range(TRACE_ROUNDS):
            bench.serve(workload, scenario, served, tmpdir, args.seed, stretch, phase=untraced)
            with Instrumentation(recorder) as inst:
                bench.serve(workload, scenario, served, tmpdir, args.seed, stretch,
                            phase=traced, recorder=recorder, instrument=inst)
        phases = [untraced, traced]
        phase = untraced
        fit_counts = bench.count_fit(scenario, served)

    ref = bench.check_pass(workload, scenario, served, tmpdir, args.seed, log_counter)
    attempted = sum(p.ticks for p in phases)
    failed = sum(p.raised + bench.compare(p, ref) for p in phases)
    if ref.bad_ticks:
        problems.append(f"check pass: {len(ref.bad_ticks)} ticks failed a reference check")
    if failed:
        problems.append(f"{failed} of {attempted} measured ticks failed")
    if args.trace:
        alert_streams = [
            [bench.alert_key(r) for r in night if r is not None] for p in phases for night in p.nights
        ]
        shortest = min(len(s) for s in alert_streams)
        if any(s[:shortest] != alert_streams[0][:shortest] for s in alert_streams):
            problems.append("alert streams differ between the untraced and traced runs")
    counts = {
        "alerts_fired": ref.counts["alerts_fired"],
        "log_records": ref.counts["log_records"],
        "masked_cells": ref.counts["masked_cells"],
        "drift_trips": ref.counts["drift_trips"],
        "decisions": ref.decisions,
        "calls": ref.counts["calls"],
    }
    if args.trace:
        counts.update(tensors_created=fit_counts["tensors"], batches=fit_counts["steps"])
    problems += [f"count changed between runs: {m}" for m in
                 check_counts_repeat(workload.name, args.seed, counts)]
    quality_report = bench.quality(scenario, ref)
    outcomes = outcome_metrics(phase, quality_report, failed, attempted)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(
        f"workload {workload.name} seed {args.seed}: {scenario.num_stars} stars "
        f"({workload.num_shards} shards x {scenario.config.num_variates}), "
        f"{scenario.length}-tick night, closed loop, 1 caller thread"
    )
    if not args.trace:
        metrics, tail_rule = end_to_end(workload, scenario, setups, phase, peak_rss_mb)
        lines.append(
            f"measured {phase.ticks} ticks in {phase.wall:.3f} s over {len(phase.nights)} block(s) "
            f"of {workload.block(scenario)} ticks after 1 untimed block; "
            f"tick_p50_ms is the median of all {phase.ticks} ticks; "
            f"tick_tail_ms is the {tail_rule} (n={phase.ticks}); "
            f"setup_s/fit_s are medians of {len(setups)} set-ups"
        )
    else:
        table = SpanTable(recorder, contexts=("setup.fit", "loop.retrain", "streaming.step"))
        metrics = per_layer(workload, scenario, served, table, traced, untraced,
                            setup_times, ref, fit_counts)
        metrics.update(outcomes)
        lines.append(
            f"untraced {untraced.ticks} ticks, traced {traced.ticks} ticks; per-tick ms are means "
            f"over traced ticks, training.* per set-up fit, loop.* per call; counts over the "
            f"{ref.counts['ticks']}-tick check pass"
        )
        lines.extend(breakdown(table, traced.ticks))
    lines.append(
        f"checks: {len(ref.scores)} ticks checked, {ref.autograd_checked} bit-compared with the "
        f"autograd engine, {attempted} measured ticks compared, backend compiled asserted"
    )
    if ref.decisions:
        lines.append("loop decisions per night: " + ", ".join(f"{k}@{t}" for t, k in ref.decisions))
    lines.append(
        f"outcomes, reported without a bound (quality over {quality_report['events']} events "
        f"and {quality_report['alerts']} alerts):"
    )
    for name, (value, unit) in outcomes.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    for problem in problems:
        lines.append(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result_metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return not problems, attempted, failed, result_metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    log_counter = route_logs()
    lines = [
        f"environment: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, BLAS/OpenMP threads {THREADS}"
    ]
    try:
        correct, attempted, failed, metrics = run(args, log_counter, lines)
    except bench.BenchmarkFailure as failure:
        print("\n".join(lines))
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
