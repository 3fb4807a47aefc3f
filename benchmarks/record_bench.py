#!/usr/bin/env python
"""Record streaming serving benchmarks into ``BENCH_streaming.json``.

Measures, on the seeded golden survey night (``ScenarioConfig(seed=7)``):

* **fleet tick throughput** — stars/second of a plain ``FleetManager.run``
  on ``backend="compiled"`` over the night's raw exposures, with p50/p99
  per-tick latency from the fleet's health snapshot;
* **incremental serving** — the same night on ``backend="incremental"``
  (cross-tick state, O(1)-recompute ticks), with the state's cache-hit /
  rebuild / fallback counters and its speedup over the compiled fleet loop;
* **fault-replay overhead** — wall-clock cost of driving the same night
  through :class:`repro.simulation.ReplayHarness` (dedupe gate, trace
  collection, event scoring) relative to the plain tick loop;
* **drift-monitor overhead** — the same night served with the full
  model-quality stack attached (:class:`repro.obs.DriftMonitor` +
  :class:`repro.obs.FlightRecorder`), relative to the plain tick loop;
* **continual loop** — the same night served through a
  :class:`repro.training.ContinualLearningController` (the golden night's
  baseline drift trips the monitor mid-night), recording the loop's
  decision counters, retrain cost and end-to-end overhead.

The plain, replay, drift and continual fleets all serve
``backend="compiled"``, the same engine the incremental lane compiles, so
``incremental.speedup_vs_compiled`` is incremental over compiled.  Records
written before that change built those fleets without ``backend=`` and so
served the detector's default ``autograd`` engine: their
``speedup_vs_compiled`` divided by an autograd lane (incremental over
autograd), and their fleet, replay, drift and continual timings are
autograd timings.

``fit_peak_rss_mb`` is the process's peak resident set size right after
the detector's fit, the first heavy step of the run.  Records written
before it was added lack the field.

The JSON is committed next to this script as a longitudinal *trajectory*:
a list of dated run records, appended to on every invocation, so serving
regressions show up as a kink in the history rather than a silently
overwritten number.  (Files written by older versions held a single
record; they are migrated into a one-entry trajectory on the next run.)
CI uploads the freshly recorded file as an artifact on every run (numbers
vary with runner hardware; the committed copy is the local reference).

Usage::

    PYTHONPATH=src python benchmarks/record_bench.py [-o BENCH_streaming.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro import __version__  # noqa: E402
from repro.core import AeroConfig, AeroDetector  # noqa: E402
from repro.evaluation import pot_threshold  # noqa: E402
from repro.obs import FlightRecorder, calibrate_drift_monitor  # noqa: E402
from repro.simulation import ReplayHarness, ScenarioConfig, build_scenario  # noqa: E402
from repro.streaming import AlertPolicy, FleetManager  # noqa: E402
from repro.training import ContinualLearningController, ModelRegistry  # noqa: E402

SEED = 7
POT_Q = 5e-3

DETECTOR_CONFIG = AeroConfig.fast(window=32, short_window=8).scaled(
    max_epochs_stage1=8, max_epochs_stage2=4, learning_rate=5e-3,
    d_model=24, num_heads=2, train_stride=2, batch_size=16,
)


def _build_fleet(detector, scenario, threshold, backend="compiled", **kwargs) -> FleetManager:
    return FleetManager(
        detector,
        num_shards=scenario.config.num_shards,
        alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
        threshold=threshold,
        backend=backend,
        **kwargs,
    )


def record() -> dict:
    scenario = build_scenario(ScenarioConfig(seed=SEED))
    detector = AeroDetector(DETECTOR_CONFIG)

    started = time.perf_counter()
    detector.fit(scenario.train, scenario.train_timestamps)
    fit_seconds = time.perf_counter() - started
    # Fit is the first heavy step of this process, so the peak so far is
    # the fit's (ru_maxrss is in KiB on Linux).
    fit_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_scores = detector.score(
        scenario.calibration, scenario.calibration_timestamps
    )
    threshold = pot_threshold(calibration_scores, q=POT_Q)

    # --- plain fleet ticks: the raw serving loop, faults included ---------
    fleet = _build_fleet(detector, scenario, threshold)
    started = time.perf_counter()
    fleet.run(scenario.exposures, scenario.timestamps)
    plain_seconds = time.perf_counter() - started
    health = fleet.health()
    ticks = health.steps_ingested

    # --- incremental serving: same night on the cross-tick state ---------
    incremental_fleet = _build_fleet(
        detector, scenario, threshold, backend="incremental"
    )
    started = time.perf_counter()
    incremental_fleet.run(scenario.exposures, scenario.timestamps)
    incremental_seconds = time.perf_counter() - started
    incremental_stats = incremental_fleet.incremental_stats()

    # --- fault replay: same night through the validation harness ---------
    harness = ReplayHarness(_build_fleet(detector, scenario, threshold), scenario)
    started = time.perf_counter()
    report, _trace = harness.run()
    replay_seconds = time.perf_counter() - started
    replay_frames = len(scenario.arrival) - report.duplicates_dropped

    # --- model-quality stack: same loop with drift monitor + recorder ----
    monitored = _build_fleet(
        detector, scenario, threshold,
        drift_monitor=calibrate_drift_monitor(
            calibration_scores, num_stars=scenario.num_stars
        ),
        recorder=FlightRecorder(capacity=scenario.config.night_length),
    )
    started = time.perf_counter()
    monitored.run(scenario.exposures, scenario.timestamps)
    drift_seconds = time.perf_counter() - started

    # --- continual loop: drift trips → retrain → canary → promote ---------
    loop_fleet = _build_fleet(
        detector, scenario, threshold,
        drift_monitor=calibrate_drift_monitor(
            calibration_scores, num_stars=scenario.num_stars
        ),
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        controller = ContinualLearningController(
            loop_fleet,
            ModelRegistry(root / "registry"),
            "bench-model",
            root / "work",
            seed=SEED,
        )
        started = time.perf_counter()
        for tick in range(scenario.exposures.shape[0]):
            controller.step(
                scenario.exposures[tick], float(scenario.timestamps[tick])
            )
        continual_seconds = time.perf_counter() - started
    retrain_seconds = sum(
        event.detail.get("duration_seconds", 0.0)
        for event in controller.events
        if event.kind == "retrain"
    )

    return {
        "schema": "bench-streaming/v4",
        "recorded_unix": time.time(),  # repro: allow[wallclock] -- provenance stamp in the report, not an input to any measurement
        "repro_version": __version__,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "scenario": {
            "seed": SEED,
            "num_shards": scenario.config.num_shards,
            "num_stars": scenario.num_stars,
            "night_length": scenario.config.night_length,
            "missing_fraction": round(scenario.missing_fraction(), 4),
        },
        "fit_seconds": round(fit_seconds, 3),
        "fit_peak_rss_mb": round(fit_peak_rss_mb, 1),
        "fleet": {
            "ticks": ticks,
            "seconds": round(plain_seconds, 4),
            "ticks_per_second": round(ticks / plain_seconds, 2),
            "stars_per_second": round(ticks * health.num_stars / plain_seconds, 1),
            "p50_step_ms": round(health.p50_step_ms, 3),
            "p99_step_ms": round(health.p99_step_ms, 3),
        },
        "incremental": {
            "seconds": round(incremental_seconds, 4),
            "ticks_per_second": round(ticks / incremental_seconds, 2),
            "speedup_vs_compiled": round(plain_seconds / incremental_seconds, 3),
            "rebuilds": incremental_stats["rebuilds"],
            "incremental_ticks": incremental_stats["incremental_ticks"],
            "fallback_ticks": incremental_stats["fallback_ticks"],
        },
        "replay": {
            "frames": replay_frames,
            "seconds": round(replay_seconds, 4),
            "seconds_per_frame": round(replay_seconds / replay_frames, 6),
            "overhead_vs_plain": round(replay_seconds / plain_seconds, 3),
            "recall": round(report.recall, 3),
            "precision": round(report.precision, 3),
        },
        "drift": {
            "seconds": round(drift_seconds, 4),
            "overhead_vs_plain": round(drift_seconds / plain_seconds, 3),
            "tripped_stars": monitored.drift_monitor.tripped_stars,
            "flight_dumps": len(monitored.recorder.records),
        },
        "continual": {
            "seconds": round(continual_seconds, 4),
            "overhead_vs_plain": round(continual_seconds / plain_seconds, 3),
            "retrain_seconds": round(retrain_seconds, 3),
            "cycles": controller.cycles,
            "live_version": controller.live_version,
            "tripped_stars_final": loop_fleet.drift_monitor.tripped_stars,
            "decisions": controller.decision_counts(),
        },
    }


def load_trajectory(path: Path) -> list[dict]:
    """Existing run records at ``path`` (oldest first), tolerant of the
    legacy layout where the file held one bare record instead of a list."""
    if not path.exists():
        return []
    existing = json.loads(path.read_text())
    if isinstance(existing, dict):                 # legacy single record
        return [existing]
    return list(existing)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output",
        default=str(Path(__file__).resolve().parent / "BENCH_streaming.json"),
        help="the JSON trajectory to append to (default: benchmarks/BENCH_streaming.json)",
    )
    args = parser.parse_args(argv)
    path = Path(args.output)
    trajectory = load_trajectory(path)
    record_dict = record()
    trajectory.append(record_dict)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    fleet, incremental, replay, drift, continual = (
        record_dict["fleet"], record_dict["incremental"],
        record_dict["replay"], record_dict["drift"], record_dict["continual"],
    )
    print(f"wrote {path} ({len(trajectory)} run{'s' if len(trajectory) != 1 else ''})")
    print(
        f"fleet: {fleet['stars_per_second']:,.0f} stars/s "
        f"(p50 {fleet['p50_step_ms']:.2f} ms, p99 {fleet['p99_step_ms']:.2f} ms); "
        f"incremental {incremental['speedup_vs_compiled']:.2f}x "
        f"({incremental['rebuilds']} rebuilds); "
        f"replay overhead {replay['overhead_vs_plain']:.2f}x; "
        f"drift overhead {drift['overhead_vs_plain']:.2f}x"
    )
    print(
        f"continual: {continual['cycles']} cycle(s) -> v{continual['live_version']:04d} "
        f"({continual['retrain_seconds']:.2f} s retraining, "
        f"{continual['overhead_vs_plain']:.2f}x overhead); "
        f"decisions {continual['decisions']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
