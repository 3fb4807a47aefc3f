"""Workloads, serving phases and correctness checks of the AERO fleet benchmark.

Every workload is a closed loop driven by one caller thread: the next
exposure goes in when ``step()`` returns.  A block of the night is replayed
from tick 0 on a fresh fleet (and, on ``continual-night``, a fresh
controller and registry) as often as the measured time allows.  See
``NOTES.md``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import AeroConfig, AeroDetector
from repro.evaluation import pot_threshold
from repro.nn import optim
from repro.nn.tensor import Tensor
from repro.obs import calibrate_drift_monitor
from repro.runtime import compile_detector
from repro.simulation import ScenarioConfig, build_scenario, score_replay
from repro.streaming import AlertPolicy, FleetManager
from repro.training import ContinualLearningController, ModelRegistry
from repro.training.fleet import FleetTrainer

from spans import CallCounter, Instrumentation, SpanRecorder

# The detector of benchmarks/record_bench.py (DETECTOR_CONFIG), pinned here
# so that editing that script cannot silently change this benchmark.
CONFIG = AeroConfig.fast(window=32, short_window=8).scaled(
    max_epochs_stage1=8, max_epochs_stage2=4, learning_rate=5e-3,
    d_model=24, num_heads=2, train_stride=2, batch_size=16,
)
POT_Q = 5e-3
GRACE = 12                 # ReplayHarness's default event grace window
SETUP_REPEATS = 3
SAMPLED_TICKS = 3          # ticks per check pass compared with the autograd engine
# The loop retrains only on a full traffic ring, so every retrain and canary
# does the same work whatever tick the drift trips on; a cooldown as long as
# the night allows one cycle per night.
LOOP_HISTORY = 128
# Trip bounds at 0.4x the DriftMonitor defaults: with the defaults some
# seeds never trip (seed 4), and a night without a cycle measures plain
# serving; with these every seed tried trips once, at tick 175-191.
DRIFT_BOUNDS = {"psi_trip": 0.1, "psi_clear": 0.05, "ks_trip": 0.2, "ks_clear": 0.1}


class BenchmarkFailure(RuntimeError):
    """A check that makes the whole run invalid (not one failed tick)."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise BenchmarkFailure(message)


@dataclass(frozen=True)
class Workload:
    name: str
    num_shards: int
    continual: bool
    block_ticks: int | None  # ticks replayed per fresh fleet (None: the whole night)

    def scenario(self, seed: int):
        return build_scenario(ScenarioConfig(seed=seed, num_shards=self.num_shards))

    def block(self, scenario) -> int:
        return scenario.length if self.block_ticks is None else self.block_ticks


WORKLOADS = {
    w.name: w
    for w in (
        # A 1024-star night takes 25-40 s; 32-tick blocks fit several
        # blocks, and a check pass over one, inside a run.
        Workload("wide-field", num_shards=256, continual=False, block_ticks=32),
        Workload("continual-night", num_shards=2, continual=True, block_ticks=None),
    )
}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Served:
    detector: AeroDetector
    engine: object                # repro.runtime.CompiledDetector
    threshold: float
    calibration: np.ndarray       # held-out calibration scores (T, N)


def set_up(workload: Workload, scenario, tmpdir: Path, seed: int, recorder=None):
    """Fit, compile and calibrate; on ``continual-night`` also publish the baseline.

    Returns the served model and the phase timings in seconds.
    """
    recorder = SpanRecorder() if recorder is None else recorder
    started = perf_counter()
    recorder.begin("setup.fit")
    detector = AeroDetector(CONFIG)
    detector.fit(scenario.train, scenario.train_timestamps)
    recorder.end()
    fitted = perf_counter()
    recorder.begin("setup.compile")
    engine = compile_detector(detector)
    recorder.end()
    compiled = perf_counter()
    recorder.begin("setup.calibrate")
    calibration = engine.score(scenario.calibration, scenario.calibration_timestamps)
    threshold = float(pot_threshold(calibration, q=POT_Q))
    recorder.end()
    calibrated = perf_counter()
    served = Served(detector, engine, threshold, calibration)
    if workload.continual:
        Night(workload, scenario, served, tmpdir, seed).close()
    return served, {
        "setup": perf_counter() - started,
        "fit": fitted - started,
        "compile": compiled - fitted,
        "calibrate": calibrated - compiled,
    }


class Night:
    """A fresh fleet (plus controller and registry on ``continual-night``)."""

    def __init__(self, workload: Workload, scenario, served: Served, tmpdir: Path, seed: int):
        monitor = (
            calibrate_drift_monitor(
                served.calibration, num_stars=scenario.num_stars, **DRIFT_BOUNDS
            )
            if workload.continual else None
        )
        self.fleet = FleetManager(
            served.detector,
            num_shards=workload.num_shards,
            alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
            threshold=served.threshold,
            backend=served.engine,
            drift_monitor=monitor,
        )
        require(self.fleet.backend == "compiled", f"fleet serves {self.fleet.backend!r}")
        self.controller = None
        self.root = None
        if workload.continual:
            self.root = Path(tempfile.mkdtemp(dir=tmpdir))
            self.controller = ContinualLearningController(
                self.fleet,
                ModelRegistry(self.root / "registry"),
                "aero",
                self.root / "work",
                history_ticks=LOOP_HISTORY,
                min_history_ticks=LOOP_HISTORY,
                cooldown_ticks=scenario.length,
                seed=seed,
            )

    def step_fn(self):
        return self.fleet.step if self.controller is None else self.controller.step

    def registry_bytes(self) -> int:
        if self.root is None:
            return 0
        return sum(p.stat().st_size for p in (self.root / "registry").rglob("*") if p.is_file())

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


def alert_key(result) -> tuple:
    return tuple((a.star, a.step, a.score, a.threshold) for a in result.alerts)


# ----------------------------------------------------------------------
# the measured phase
# ----------------------------------------------------------------------
@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    wall: float = 0.0
    nights: list = field(default_factory=list)        # per block: list of step results
    decisions: list = field(default_factory=list)     # per block: [(step, kind)]
    cycle_ticks: list = field(default_factory=list)   # latency of ticks that ran a loop cycle
    retrains: list = field(default_factory=list)      # seconds inside FleetTrainer.train
    raised: int = 0

    @property
    def ticks(self) -> int:
        return len(self.latencies)


def warm_up(workload, scenario, served, tmpdir, seed) -> None:
    """Serve one block untimed, so that lazy set-up and caches settle before timing."""
    night = Night(workload, scenario, served, tmpdir, seed)
    step = night.step_fn()
    stamps = scenario.timestamps.tolist()
    try:
        for i in range(workload.block(scenario)):
            step(scenario.exposures[i], stamps[i])
    finally:
        night.close()


def serve(workload, scenario, served, tmpdir, seed, seconds,
          phase=None, recorder=None, instrument=None) -> Phase:
    """Replay whole blocks of the night for ``seconds``, appending to ``phase``.

    Each block replays ticks ``0 .. block`` on a fresh :class:`Night`.  A
    block that starts before the deadline runs to its end, so that every
    run measures whole nights: on ``continual-night`` a night cut before
    or after its loop cycle would move ``stars_per_s`` by the cycle's share.
    Traced when ``recorder`` and ``instrument`` are given.
    """
    block = workload.block(scenario)
    rows = [scenario.exposures[i] for i in range(block)]
    stamps = scenario.timestamps.tolist()
    phase = Phase() if phase is None else phase
    if instrument is not None:
        instrument.training()
    with Instrumentation() as timer:
        if workload.continual:
            train = FleetTrainer.__dict__["train"]

            def timed_train(trainer, *args, **kwargs):
                started = perf_counter()
                try:
                    return train(trainer, *args, **kwargs)
                finally:
                    phase.retrains.append(perf_counter() - started)

            timer.patch(FleetTrainer, "train", timed_train)
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            night = Night(workload, scenario, served, tmpdir, seed)
            if instrument is not None:
                instrument.fleet(night.fleet)
            step = night.step_fn()
            controller = night.controller
            cycles = 0
            version = controller.live_version if controller is not None else 0
            results = []
            begin = perf_counter()
            for i in range(block):
                started = perf_counter()
                if recorder is not None:
                    recorder.tick = len(phase.latencies)
                    recorder.begin("tick")
                try:
                    result = step(rows[i], stamps[i])
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    phase.raised += 1
                    result = None
                finally:
                    if recorder is not None:
                        recorder.end()
                        recorder.tick = -1
                ended = perf_counter()
                phase.latencies.append(ended - started)
                results.append(result)
                if controller is not None:
                    if controller.cycles != cycles:
                        cycles = controller.cycles
                        phase.cycle_ticks.append(ended - started)
                    if controller.live_version != version:
                        version = controller.live_version
                        require(night.fleet.backend == "compiled",
                                f"deploy left the fleet on {night.fleet.backend!r}")
            phase.wall += perf_counter() - begin
            phase.nights.append(results)
            if controller is not None:
                phase.decisions.append([(e.step, e.kind) for e in controller.events])
            night.close()
    require(phase.ticks > 0, "no tick fitted in the measured time")
    return phase


# ----------------------------------------------------------------------
# the check pass: reference outputs and deterministic counts
# ----------------------------------------------------------------------
@dataclass
class Reference:
    scores: list = field(default_factory=list)        # per tick, emitted scores
    alerts: list = field(default_factory=list)        # per tick, alert keys
    bad_ticks: set = field(default_factory=set)       # ticks failing a check
    decisions: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    registry_bytes: int = 0
    autograd_checked: int = 0


def check_pass(workload, scenario, served, tmpdir, seed, log_counter) -> Reference:
    """Replay one block untimed, checking every emitted score.

    The live engine's raw ``score_stack`` output is captured on every tick:
    it must be finite, the fleet must emit it unchanged for every star it
    does not mask, and every missing observation must be masked.  On
    sampled ticks (and on the first tick served by a newly deployed model)
    the raw output must be bit-equal to ``AeroDetector.score_windows(...,
    backend="autograd")`` on the same windows.  Counts are taken over the
    block, with Python/C calls counted inside ``score_stack``.
    """
    ticks = workload.block(scenario)
    rng = np.random.default_rng(seed)
    sampled = set(int(t) for t in rng.choice(ticks, size=min(SAMPLED_TICKS, ticks), replace=False))
    rows = [scenario.exposures[i] for i in range(ticks)]
    stamps = scenario.timestamps.tolist()
    window, short = CONFIG.window, CONFIG.short_window
    # A fresh engine: the served one's memo caches hold whatever the measured
    # phase left there, which would make the call counts vary between runs.
    served = replace(served, engine=compile_detector(served.detector))
    night = Night(workload, scenario, served, tmpdir, seed)
    fleet = night.fleet
    counter = CallCounter()
    state = {"tick": 0, "raw": None, "windows": None, "trips": 0}
    ref = Reference()

    with Instrumentation() as inst:

        def install():
            engine = fleet._engine          # the object a deploy replaces
            if "score_stack" in vars(engine):
                return
            original = engine.score_stack
            counted = counter.wrap(original)

            def capture(stack, timestamps=None):
                tick = state["tick"]
                out = counted(stack, timestamps)
                state["raw"] = out.copy()
                if tick in sampled:
                    state["windows"] = (np.array(stack), np.array(timestamps), fleet.detector)
                return out

            inst.patch(engine, "score_stack", capture)
            monitor = fleet.drift_monitor
            if monitor is not None and "update" not in vars(monitor):
                update = monitor.update

                def count_trips(scores):
                    tripped = update(scores)
                    state["trips"] += tripped
                    return tripped

                inst.patch(monitor, "update", count_trips)

        deploy = ModelRegistry.__dict__["deploy"]

        def deploy_and_reinstall(registry, name, target, *args, **kwargs):
            try:
                return deploy(registry, name, target, *args, **kwargs)
            finally:
                if target is fleet:
                    install()
                    sampled.add(state["tick"] + 1)

        deploy_and_reinstall.__wrapped__ = deploy
        inst.patch(ModelRegistry, "deploy", deploy_and_reinstall)
        install()

        step = night.step_fn()
        logged = log_counter.count
        alerts = masked = cells = 0
        for tick in range(ticks):
            state.update(tick=tick, raw=None, windows=None)
            result = step(rows[tick], stamps[tick])
            raw = state["raw"]
            scores = result.scores
            finite = np.isfinite(scores)
            missing = ~np.isfinite(np.asarray(rows[tick], dtype=np.float64))
            ok = (
                raw is not None
                and bool(np.isfinite(raw).all())
                and np.array_equal(scores[finite], raw[finite])
                and not finite[missing].any()
            )
            if ok and state["windows"] is not None:
                stack, times, detector = state["windows"]
                long = stack.transpose(0, 2, 1)
                times = np.broadcast_to(times, (stack.shape[0], window))
                expected = detector.score_windows(
                    long, long[:, :, window - short:], times, times[:, window - short:],
                    backend="autograd",
                )
                ok = np.array_equal(expected, raw)
                ref.autograd_checked += 1
            if not ok:
                ref.bad_ticks.add(tick)
            ref.scores.append(scores.copy())
            ref.alerts.append(alert_key(result))
            alerts += len(result.alerts)
            masked += int((~finite).sum())
            cells += scores.size
        logged = log_counter.count - logged
        if night.controller is not None:
            ref.decisions = [(e.step, e.kind) for e in night.controller.events]
            require(fleet.backend == "compiled", f"deploy left the fleet on {fleet.backend!r}")
        ref.registry_bytes = night.registry_bytes()
    night.close()
    ref.counts = {
        "ticks": ticks,
        "calls": counter.calls,
        "alerts_fired": alerts,
        "masked_cells": masked,
        "cells": cells,
        "log_records": logged,
        "drift_trips": state["trips"],
    }
    return ref


def compare(phase: Phase, ref: Reference) -> int:
    """Ticks of ``phase`` that differ from the reference or failed its checks."""
    failed = 0
    for results in phase.nights:
        for tick, result in enumerate(results):
            if result is None:
                continue                          # already counted as raised
            if (
                tick in ref.bad_ticks
                or not np.array_equal(result.scores, ref.scores[tick], equal_nan=True)
                or alert_key(result) != ref.alerts[tick]
            ):
                failed += 1
    for decisions in phase.decisions:
        if decisions != ref.decisions:
            failed += 1
    return failed


def quality(scenario, ref: Reference) -> dict:
    """Event recall/precision and quiet-star false alerts over the checked ticks.

    On a partial night only events whose grace window closed inside the
    checked ticks count towards recall.
    """
    served = len(ref.alerts)
    seqs = [a[1] for tick in ref.alerts for a in tick]
    stars = [a[0] for tick in ref.alerts for a in tick]
    report = score_replay(scenario, np.asarray(seqs), np.asarray(stars), grace=GRACE)
    closed = [o for o in report.outcomes if o.event.end + GRACE <= served]
    if served >= scenario.length:
        closed = report.outcomes
    recall = sum(o.detected for o in closed) / len(closed) if closed else 1.0
    return {
        "event_recall": recall,
        "event_precision": report.precision,
        "quiet_false_alerts": report.quiet_star_false_alerts,
        "events": len(closed),
        "alerts": report.num_alerts,
    }


def count_fit(scenario, served: Served) -> dict:
    """Tensors created and optimizer steps of one fit, checked against set-up's fit."""
    counts = {"tensors": 0, "steps": 0}
    with Instrumentation() as inst:
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            counts["tensors"] += 1
            init(self, *args, **kwargs)

        inst.patch(Tensor, "__init__", counting_init)
        for cls in (optim.Optimizer, *optim.Optimizer.__subclasses__()):
            if "step" in cls.__dict__:
                original = cls.__dict__["step"]

                def counting_step(self, _original=original):
                    counts["steps"] += 1
                    return _original(self)

                inst.patch(cls, "step", counting_step)
        detector = AeroDetector(CONFIG).fit(scenario.train, scenario.train_timestamps)
    require(
        np.array_equal(detector.train_scores_, served.detector.train_scores_),
        "two fits on the same data differ",
    )
    return counts


def gflop_per_tick(engine, num_shards: int) -> float:
    """Matmul/einsum GFLOP of one fleet tick, computed from the plan shapes.

    Elementwise work (softmax, layer norm, activations, time embedding) is
    not counted.  Assumes the served profile: masked conditioning,
    univariate folding, short-window target.
    """
    model = engine.model
    temporal, noise = model.temporal, model.noise
    require(
        temporal.conditioning == "masked" and not temporal.multivariate_input
        and temporal.use_short_window,
        "gflop_per_tick assumes the masked univariate profile",
    )
    stacks, variates = num_shards, model.num_variates
    rows = stacks * variates
    window, short = engine.config.window, engine.config.short_window
    context = window - short

    def linear(count, weight):
        return 2 * count * weight.shape[0] * weight.shape[1]

    def attention(plan, batch, queries, keys):
        width = plan.wq.shape[1]
        return (
            linear(batch * queries, plan.wq) + 2 * linear(batch * keys, plan.wq)
            + 2 * 2 * batch * queries * keys * width + linear(batch * queries, plan.wo)
        )

    def ffn(plan, count):
        return linear(count, plan.w1) + linear(count, plan.w2)

    flops = linear(rows * context, temporal.encoder_embedding_w)
    for layer in temporal.encoder_layers:
        flops += attention(layer.self_attention, rows, context, context)
        flops += ffn(layer.feed_forward, rows * context)
    for index, layer in enumerate(temporal.decoder_layers):
        # The first self stage runs once per stack, not per folded variate.
        flops += attention(layer.self_attention, stacks if index == 0 else rows, short, short)
        flops += attention(layer.cross_attention, rows, short, context)
        flops += ffn(layer.feed_forward, rows * short)
    flops += ffn(temporal.output_ffn, rows * short)
    flops += linear(rows * short, temporal.output_projection_w)
    if noise is not None:
        flops += 2 * 2 * stacks * variates * variates * short   # cosine graph + propagation
        flops += linear(rows, noise.weight)
    return flops / 1e9
