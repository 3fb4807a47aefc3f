"""Registry of steady-state hot paths and the ``@hot_path`` decorator.

A *hot path* is a function whose per-tick execution is part of a pinned
performance contract: the fleet/POT/telemetry tick paths are benchmarked
against allocation-driven regressions.  The
``hot-alloc``/``hot-ufunc-out`` lint rules (:mod:`repro.analysis.rules`)
flag numpy allocations inside registered functions so a new ``np.empty`` or
an ``out=``-less ufunc cannot sneak into a tick unnoticed.

Two registration mechanisms, both purely declarative:

* the :data:`HOT_PATHS` manifest below — ``"path::qualname"`` keys matched
  by path *suffix*, covering existing code without touching it;
* the :func:`hot_path` decorator — for new code, mark the function where it
  is defined.  The linter recognises the decorator syntactically; at
  runtime it is a zero-cost identity wrapper.

Tiers
-----
``"alloc"``
    The function may not call allocating numpy constructors
    (``np.empty``/``np.zeros``/``np.concatenate``/``np.stack``/… ) or the
    allocating ``.copy()``/``.astype()`` methods.  Fresh result arrays that
    intentionally outlive the tick carry a ``# repro: allow[hot-alloc]``
    suppression with a justification.
``"strict"``
    Everything ``alloc`` forbids, plus every ufunc call must write into a
    preallocated destination (``out=``): the contract for a kernel that
    works entirely in caller-owned buffers.  No manifest entry uses it
    today; ``@hot_path(tier="strict")`` registers one in place.
"""

from __future__ import annotations

__all__ = ["HOT_PATHS", "hot_path"]

#: ``"<path suffix>::<qualified name>"`` → tier.  Qualified names follow the
#: lexical nesting of the AST (``Class.method``); the path is matched as a
#: ``/``-separated suffix of the linted file's path.
HOT_PATHS: dict[str, str] = {
    # -- fleet serving tick ----------------------------------------------
    "repro/streaming/fleet.py::FleetManager.step": "alloc",
    "repro/streaming/fleet.py::FleetManager._step_inner": "alloc",
    "repro/streaming/fleet.py::FleetManager._record_tick_metrics": "alloc",
    # -- per-star adaptive thresholds ------------------------------------
    "repro/streaming/vector_pot.py::VectorizedIncrementalPOT.update": "alloc",
    "repro/streaming/vector_pot.py::VectorizedIncrementalPOT._push_excesses": "alloc",
    "repro/streaming/vector_pot.py::VectorizedIncrementalPOT._recompute_thresholds": "alloc",
    # -- telemetry per-tick updates --------------------------------------
    "repro/obs/metrics.py::Counter.inc": "alloc",
    "repro/obs/metrics.py::Gauge.set": "alloc",
    "repro/obs/metrics.py::Gauge.inc": "alloc",
    "repro/obs/metrics.py::Histogram.observe": "alloc",
    "repro/obs/metrics.py::Histogram.observe_many": "alloc",
    "repro/obs/metrics.py::VectorCounter.add": "alloc",
    "repro/obs/metrics.py::VectorCounter.inc_at": "alloc",
    "repro/obs/metrics.py::VectorGauge.set": "alloc",
    "repro/obs/metrics.py::VectorGauge.set_at": "alloc",
    "repro/obs/drift.py::DriftMonitor.update": "alloc",
}

_TIERS = ("alloc", "strict")


def hot_path(function=None, *, tier: str = "alloc"):
    """Mark a function as a registered steady-state hot path.

    Usable bare (``@hot_path``) or parameterised
    (``@hot_path(tier="strict")``).  The lint rules match the decorator
    *syntactically*, so marking a function is enough — no import-time
    registration happens; at runtime the function is returned unchanged.
    """
    if tier not in _TIERS:
        raise ValueError(f"hot_path tier must be one of {_TIERS}, got {tier!r}")
    if function is None:
        def decorate(inner):
            inner.__hot_path_tier__ = tier
            return inner
        return decorate
    function.__hot_path_tier__ = tier
    return function
