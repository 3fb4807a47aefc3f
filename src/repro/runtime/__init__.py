"""Compiled inference runtime: tape-free fused forward plans for serving.

Training needs the reverse-mode autograd :class:`~repro.nn.Tensor`; serving
does not.  This package exports a trained :class:`repro.core.AeroDetector`
into *plans* — module weights frozen into read-only flat arrays, forward
logic replayed with raw ``np.ndarray`` kernels — so the scoring hot path
pays for arithmetic only: no ``Tensor`` allocation, no graph bookkeeping,
no per-window python loops.

* :mod:`~repro.runtime.ops` — numerics-exact ndarray kernels mirroring the
  ``repro.nn`` ops (the basis of the float64 bit-for-bit guarantee);
* :mod:`~repro.runtime.plans` — :class:`TemporalPlan`, :class:`NoisePlan`
  and :class:`CompiledModel`, the fused executable forms of the two AERO
  stages and the score head;
* :mod:`~repro.runtime.compiler` — :func:`compile_model` /
  :func:`compile_detector` weight export, and :class:`CompiledDetector`,
  the drop-in serving front-end (``score``/``detect``/``score_windows``
  plus the fused multi-star ``score_stack``, scored in cache-sized shard
  blocks).

The compiled plan is the one serving engine: ``score_stack`` and
``score_windows`` both run :meth:`CompiledModel.scores`, a full forward
over each window.  AERO's encoder attends globally over slot-relative time
embeddings, so every slide changes every encoder position and there is no
exact cross-tick reuse to cache.

Entry points::

    compiled = compile_detector(detector)            # bit-equal float64
    compiled32 = compile_detector(detector, dtype="float32")
    scores = compiled.score(test_series)             # == detector.score(...)

or, through the detector itself::

    detector.score(test_series, backend="compiled")
    stream = detector.stream(backend="compiled")     # tape-free streaming
"""

from .compiler import CompiledDetector, compile_detector, compile_model
from .plans import (
    CompiledForwardResult,
    CompiledModel,
    NoisePlan,
    TemporalPlan,
    TimeEmbeddingPlan,
)

__all__ = [
    "compile_detector",
    "compile_model",
    "CompiledDetector",
    "CompiledModel",
    "CompiledForwardResult",
    "TemporalPlan",
    "NoisePlan",
    "TimeEmbeddingPlan",
]
