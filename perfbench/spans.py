"""Outside-in span tracing for the benchmark.

Spans are recorded around calls into each layer's public callables, from
the benchmark's side: instance attributes of the live serving objects
(fleet, alert policy, drift monitor, the compiled engine and its plan
objects) and, for training and the continual loop, methods patched at
class level.  Nothing under ``src/`` is edited; every patch is undone when
the :class:`Instrumentation` context exits.

Each span stores its name, start, end, parent span and the tick it belongs
to (``-1`` outside ticks).  Spans stay in memory; :class:`SpanTable` turns
them into per-name totals and self times (duration minus the time covered
by child spans) after the run.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np


class SpanRecorder:
    """In-memory span store; parents are the enclosing open span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ticks: list[int] = []
        self._open: list[int] = []
        self.tick = -1

    def begin(self, name: str) -> None:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ticks.append(self.tick)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())

    def end(self) -> None:
        self.ends[self._open.pop()] = perf_counter()


def timed(recorder: SpanRecorder, name: str, fn):
    """``fn`` wrapped in a span; works for functions and bound methods."""

    def wrapper(*args, **kwargs):
        recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end()

    wrapper.__wrapped__ = fn
    return wrapper


class PlanProxy:
    """Stands in for a plan object in a ``__slots__`` attribute.

    Calls to the object itself (when ``"__call__"`` is listed) and to the
    listed methods are timed under ``name``; every other attribute is read
    through from the wrapped plan.
    """

    def __init__(self, target, recorder: SpanRecorder, name: str, methods=("__call__",)):
        self._target = target
        self._call = timed(recorder, name, target) if "__call__" in methods else target
        for method in methods:
            if method != "__call__":
                setattr(self, method, timed(recorder, name, getattr(target, method)))

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Instrumentation:
    """Applies attribute patches and restores them, newest first, on exit."""

    def __init__(self, recorder: SpanRecorder | None = None):
        self.recorder = recorder
        self._undo: list[tuple[object, str, bool, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        namespace = getattr(owner, "__dict__", None)
        if namespace is None:                        # a __slots__ attribute
            had_own, previous = True, getattr(owner, attr)
        else:
            had_own, previous = attr in namespace, namespace.get(attr)
        self._undo.append((owner, attr, had_own, previous))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time ``owner.attr`` (a method of a class or of an instance) as ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patch(owner, attr, timed(self.recorder, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, previous = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # layer instrumentation
    # ------------------------------------------------------------------
    def engine(self, engine) -> None:
        """Time a :class:`repro.runtime.CompiledDetector` and its plan objects."""
        rec = self.recorder
        self.wrap(engine, "score_stack", "runtime.forward")
        model = engine.model
        temporal = model.temporal
        self.patch(
            temporal, "time_embedding",
            PlanProxy(temporal.time_embedding, rec, "runtime.time_embed", ("__call__", "embed")),
        )
        for layer in temporal.encoder_layers:
            self.patch(layer, "self_attention", PlanProxy(
                layer.self_attention, rec, "runtime.encoder_attention", ("self_attention",)))
            self.patch(layer, "feed_forward", PlanProxy(layer.feed_forward, rec, "runtime.encoder_ffn"))
            for norm in ("norm1", "norm2"):
                self.patch(layer, norm, PlanProxy(getattr(layer, norm), rec, "runtime.encoder_norm"))
        for layer in temporal.decoder_layers:
            self.patch(layer, "self_attention", PlanProxy(
                layer.self_attention, rec, "runtime.decoder_attention", ("self_attention",)))
            self.patch(layer, "cross_attention", PlanProxy(
                layer.cross_attention, rec, "runtime.decoder_attention", ("cross",)))
            self.patch(layer, "feed_forward", PlanProxy(layer.feed_forward, rec, "runtime.decoder_ffn"))
            for norm in ("norm1", "norm2", "norm3"):
                self.patch(layer, norm, PlanProxy(getattr(layer, norm), rec, "runtime.decoder_norm"))
        self.patch(temporal, "output_ffn", PlanProxy(temporal.output_ffn, rec, "runtime.output_ffn"))
        self.patch(model, "temporal", PlanProxy(temporal, rec, "runtime.temporal"))
        self.patch(model, "noise", PlanProxy(model.noise, rec, "runtime.noise"))

    def fleet(self, fleet) -> None:
        """Time a serving fleet's step, alert policy, drift monitor and engine.

        A registry deploy replaces the fleet's engine and drift monitor, so
        this is applied again after every deploy (see :meth:`training`).
        """
        if "step" not in vars(fleet):
            self.wrap(fleet, "step", "streaming.step")
        if "update" not in vars(fleet.alert_policy):
            self.wrap(fleet.alert_policy, "update", "streaming.alerts")
        monitor = fleet.drift_monitor
        if monitor is not None and "update" not in vars(monitor):
            self.wrap(monitor, "update", "obs.drift_update")
        # The fleet exposes its live engine only as ``_engine``; it is the
        # object a deploy replaces, so it is read here directly.
        engine = fleet._engine
        if "score_stack" not in vars(engine):
            self.engine(engine)

    def training(self) -> None:
        """Class-level spans over training, the registry and the canary.

        After each ``ModelRegistry.deploy`` into a fleet traced by
        :meth:`fleet`, the fleet's instance spans are applied to its new
        engine and drift monitor.
        """
        from repro.core.model import AeroModel
        from repro.nn import optim
        from repro.nn.tensor import Tensor
        from repro.training import loop
        from repro.training.fleet import FleetTrainer
        from repro.training.registry import ModelRegistry

        self.wrap(Tensor, "backward", "training.backward")
        for cls in (optim.Optimizer, *optim.Optimizer.__subclasses__()):
            if "step" in cls.__dict__:
                self.wrap(cls, "step", "training.optimizer")
        self.wrap(AeroModel, "temporal_forward", "training.forward")
        self.wrap(AeroModel, "noise_forward", "training.forward")
        self.wrap(FleetTrainer, "train", "loop.retrain")
        self.wrap(ModelRegistry, "publish", "loop.publish")
        self.patch(loop, "evaluate_canary", timed(self.recorder, "loop.canary", loop.evaluate_canary))

        deploy = ModelRegistry.__dict__["deploy"]
        recorder = self.recorder

        def traced_deploy(registry, name, target, *args, **kwargs):
            recorder.begin("loop.deploy")
            try:
                return deploy(registry, name, target, *args, **kwargs)
            finally:
                recorder.end()
                if "step" in vars(target):           # a fleet traced by self.fleet
                    self.fleet(target)

        traced_deploy.__wrapped__ = deploy
        self.patch(ModelRegistry, "deploy", traced_deploy)


class CallCounter:
    """Counts Python and C calls made while :meth:`counting` is active."""

    def __init__(self):
        self.calls = 0

    def _profile(self, frame, event, arg):
        if event == "call" or event == "c_call":
            self.calls += 1

    def wrap(self, fn):
        def counted(*args, **kwargs):
            sys.setprofile(self._profile)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return counted


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class SpanTable:
    """Per-span durations, self times and enclosing-context labels."""

    def __init__(self, recorder: SpanRecorder, contexts=()):
        self.names = np.asarray(recorder.names, dtype=object)
        starts = np.asarray(recorder.starts)
        ends = np.asarray(recorder.ends)
        self.parents = np.asarray(recorder.parents, dtype=np.int64)
        self.ticks = np.asarray(recorder.ticks, dtype=np.int64)
        self.duration = ends - starts
        covered = np.zeros_like(self.duration)
        nested = self.parents >= 0
        np.add.at(covered, self.parents[nested], self.duration[nested])
        self.self_time = self.duration - covered
        # A span's context is the nearest enclosing span (itself included)
        # whose name is in ``contexts``; parents precede children.
        context = np.empty(len(self.names), dtype=object)
        for index, name in enumerate(recorder.names):
            parent = recorder.parents[index]
            if name in contexts:
                context[index] = name
            else:
                context[index] = context[parent] if parent >= 0 else None
        self.context = context

    def select(self, name: str, context: str | None = None, in_tick: bool = False):
        mask = self.names == name
        if context is not None:
            mask &= self.context == context
        if in_tick:
            mask &= self.ticks >= 0
        return mask

    def total(self, name: str, **where) -> float:
        return float(self.duration[self.select(name, **where)].sum())

    def self_total(self, name: str, **where) -> float:
        return float(self.self_time[self.select(name, **where)].sum())

    def count(self, name: str, **where) -> int:
        return int(self.select(name, **where).sum())
