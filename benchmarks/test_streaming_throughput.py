"""Benchmark S1 — streaming serving: per-step latency vs naive batch re-scoring.

The naive online deployment of the batch detector re-runs ``score()`` on the
full accumulated series every time a new timestamp arrives — O(T) windows per
step.  The streaming path scores exactly one window per step, and the fleet
path amortises the remaining per-call overhead across shards with one
vectorised model call per exposure.  This benchmark measures all three on the
same mid-night serving scenario and enforces the acceptance criterion that
streaming is at least 10x faster per step than naive re-scoring.
"""

import functools
import time

import numpy as np

from conftest import run_once

from repro.core import AeroConfig, AeroDetector
from repro.data import load_synthetic
from repro.obs import MetricsRegistry, Tracer
from repro.streaming import AlertPolicy, FleetManager, StreamingService

HISTORY = 120          # test rows already observed when timing starts
STEPS = 40             # arriving timestamps to serve
NUM_SHARDS = 8


@functools.lru_cache(maxsize=1)
def _fitted():
    """Train the benchmark detector once per session (both tests share it)."""
    return _fit_detector()


def _fit_detector():
    config = AeroConfig(
        window=24, short_window=8, d_model=16, num_heads=2,
        train_stride=3, max_epochs_stage1=4, max_epochs_stage2=3,
        batch_size=16, learning_rate=5e-3,
    )
    dataset = load_synthetic("SyntheticMiddle", scale=0.05)
    detector = AeroDetector(config)
    detector.fit(dataset.train, dataset.train_timestamps)
    return detector, dataset


def _run_serving_comparison():
    detector, dataset = _fitted()
    test = dataset.test
    assert test.shape[0] >= HISTORY + STEPS

    # --- naive: re-run the batch scorer on the full history per new point --
    naive_scores = []
    started = time.perf_counter()
    for step in range(STEPS):
        scores = detector.score(test[: HISTORY + step + 1])
        naive_scores.append(scores[-1])
    naive_seconds = time.perf_counter() - started

    # --- streaming: one window per arriving timestamp ----------------------
    stream = detector.stream()
    for row in test[:HISTORY]:
        stream.step(row)
    stream_scores = []
    started = time.perf_counter()
    for row in test[HISTORY : HISTORY + STEPS]:
        stream_scores.append(stream.step(row).scores)
    stream_seconds = time.perf_counter() - started

    # --- fleet: NUM_SHARDS fields served by one model call per exposure ----
    fleet = FleetManager(detector, num_shards=NUM_SHARDS, alert_policy=AlertPolicy())
    service = StreamingService(fleet)
    for row in test[:HISTORY]:
        service.submit(np.broadcast_to(row, (NUM_SHARDS, len(row))))
        service.drain()
    fleet_started = time.perf_counter()
    for row in test[HISTORY : HISTORY + STEPS]:
        service.submit(np.broadcast_to(row, (NUM_SHARDS, len(row))))
        service.drain()
    fleet_seconds = time.perf_counter() - fleet_started

    return {
        "num_variates": dataset.num_variates,
        "naive_step_ms": 1e3 * naive_seconds / STEPS,
        "stream_step_ms": 1e3 * stream_seconds / STEPS,
        "fleet_step_ms": 1e3 * fleet_seconds / STEPS,
        "speedup": naive_seconds / stream_seconds,
        "naive_stars_per_sec": dataset.num_variates * STEPS / naive_seconds,
        "stream_stars_per_sec": dataset.num_variates * STEPS / stream_seconds,
        "fleet_stars_per_sec": fleet.num_stars * STEPS / fleet_seconds,
        "naive_scores": np.stack(naive_scores),
        "stream_scores": np.stack(stream_scores),
        "service_stats": service.stats(),
    }


def test_streaming_throughput(benchmark, profile):
    result = run_once(benchmark, _run_serving_comparison)

    print()
    print(f"{'path':<12}{'per-step latency':>18}{'stars/sec':>14}")
    print("-" * 44)
    print(f"{'naive':<12}{result['naive_step_ms']:>15.2f} ms{result['naive_stars_per_sec']:>14,.0f}")
    print(f"{'streaming':<12}{result['stream_step_ms']:>15.2f} ms{result['stream_stars_per_sec']:>14,.0f}")
    print(f"{'fleet x8':<12}{result['fleet_step_ms']:>15.2f} ms{result['fleet_stars_per_sec']:>14,.0f}")
    print(f"streaming speedup over naive re-scoring: {result['speedup']:.1f}x")
    print(f"service: {result['service_stats'].format()}")

    # Same inputs, same model: the serving paths must agree on the scores.
    np.testing.assert_allclose(
        result["stream_scores"], result["naive_scores"], rtol=0, atol=1e-10
    )
    # Acceptance criterion: streaming serving is >= 10x naive re-scoring.
    assert result["speedup"] >= 10.0
    # The fleet serves NUM_SHARDS x more stars; per-step cost must grow far
    # more slowly than the shard count (vectorisation pays off).
    assert result["fleet_stars_per_sec"] > result["stream_stars_per_sec"]


# ---------------------------------------------------------------------------
# telemetry overhead
# ---------------------------------------------------------------------------
TELEMETRY_REPS = 3
TELEMETRY_OVERHEAD_CAP = 1.05   # instrumented <= 5% over uninstrumented


def _run_telemetry_overhead():
    """Paired per-tick timing of an instrumented vs uninstrumented fleet.

    Whole-run timings of this model are far noisier than the 5% bound being
    asserted (the forward pass alone varies ~20% run to run), so the two
    paths are stepped in lockstep — per tick, back to back — and each tick
    keeps its best latency over the repetitions.  Jitter (thermal, GC,
    interrupts) then hits both paths equally instead of landing on whichever
    run it happened to overlap.
    """
    detector, dataset = _fitted()
    rows = [
        np.broadcast_to(row, (NUM_SHARDS, len(row)))
        for row in dataset.test[HISTORY : HISTORY + STEPS]
    ]
    plain_ticks = np.full((TELEMETRY_REPS, STEPS), np.inf)
    instr_ticks = np.full((TELEMETRY_REPS, STEPS), np.inf)
    for rep in range(TELEMETRY_REPS):
        plain = FleetManager(detector, num_shards=NUM_SHARDS, alert_policy=AlertPolicy())
        instrumented = FleetManager(
            detector, num_shards=NUM_SHARDS, alert_policy=AlertPolicy(),
            registry=MetricsRegistry(), tracer=Tracer(),
        )
        for tick, row in enumerate(rows):
            started = time.perf_counter()
            plain.step(row)
            plain_ticks[rep, tick] = time.perf_counter() - started
            started = time.perf_counter()
            instrumented.step(row)
            instr_ticks[rep, tick] = time.perf_counter() - started
    return {
        "plain": float(plain_ticks.min(axis=0).sum()),
        "instrumented": float(instr_ticks.min(axis=0).sum()),
    }


def test_telemetry_overhead(benchmark, profile):
    """Full telemetry (metrics + tracing) costs <= 5% of fleet throughput."""
    result = run_once(benchmark, _run_telemetry_overhead)
    overhead = result["instrumented"] / result["plain"]
    print(
        f"\nplain {1e3 * result['plain'] / STEPS:.3f} ms/tick, "
        f"instrumented {1e3 * result['instrumented'] / STEPS:.3f} ms/tick "
        f"({overhead:.3f}x)"
    )
    assert overhead <= TELEMETRY_OVERHEAD_CAP, (
        f"telemetry overhead {overhead:.3f}x exceeds {TELEMETRY_OVERHEAD_CAP}x"
    )


# ---------------------------------------------------------------------------
# drift-monitor overhead
# ---------------------------------------------------------------------------
DRIFT_OVERHEAD_CAP = 1.05   # monitored <= 5% over unmonitored


def _run_drift_overhead():
    """Paired per-tick timing of the model-quality stack vs a bare fleet.

    Same lockstep discipline as :func:`_run_telemetry_overhead`: the fleet
    with a :class:`DriftMonitor` + :class:`FlightRecorder` attached and the
    bare fleet are stepped back to back per tick, each tick keeping its best
    latency over the repetitions, so machine jitter cancels instead of
    landing on one path.
    """
    from repro.obs import FlightRecorder, calibrate_drift_monitor

    detector, dataset = _fitted()
    rows = [
        np.broadcast_to(row, (NUM_SHARDS, len(row)))
        for row in dataset.test[HISTORY : HISTORY + STEPS]
    ]
    calibration_scores = detector.score(dataset.test[:HISTORY])
    num_stars = NUM_SHARDS * dataset.num_variates
    plain_ticks = np.full((TELEMETRY_REPS, STEPS), np.inf)
    monitored_ticks = np.full((TELEMETRY_REPS, STEPS), np.inf)
    for rep in range(TELEMETRY_REPS):
        plain = FleetManager(detector, num_shards=NUM_SHARDS, alert_policy=AlertPolicy())
        monitored = FleetManager(
            detector, num_shards=NUM_SHARDS, alert_policy=AlertPolicy(),
            drift_monitor=calibrate_drift_monitor(calibration_scores, num_stars=num_stars),
            recorder=FlightRecorder(capacity=STEPS),
        )
        for tick, row in enumerate(rows):
            started = time.perf_counter()
            plain.step(row)
            plain_ticks[rep, tick] = time.perf_counter() - started
            started = time.perf_counter()
            monitored.step(row)
            monitored_ticks[rep, tick] = time.perf_counter() - started
    return {
        "plain": float(plain_ticks.min(axis=0).sum()),
        "monitored": float(monitored_ticks.min(axis=0).sum()),
    }


def test_drift_overhead(benchmark, profile):
    """Drift monitoring + flight recording cost <= 5% of fleet throughput."""
    result = run_once(benchmark, _run_drift_overhead)
    overhead = result["monitored"] / result["plain"]
    print(
        f"\nplain {1e3 * result['plain'] / STEPS:.3f} ms/tick, "
        f"drift-monitored {1e3 * result['monitored'] / STEPS:.3f} ms/tick "
        f"({overhead:.3f}x)"
    )
    assert overhead <= DRIFT_OVERHEAD_CAP, (
        f"drift-monitoring overhead {overhead:.3f}x exceeds {DRIFT_OVERHEAD_CAP}x"
    )
