"""Plan verifier: structural checks over compiled serving plans.

``verify_model`` validates a :class:`repro.runtime.plans.CompiledModel`
by interpreting its forward composition symbolically: every plan weight is
propagated through embedding → encoder stack → decoder stack → head, and
GCN propagation → score head, checking

* dtype uniformity — every weight carries the plan dtype;
* write-locks — the ``freeze`` contract, so a serving-time mutation cannot
  silently fork the numerics;
* shape chains — ``d_model`` threading, head divisibility and the
  ``(omega, omega)`` GCN geometry.

Every failure is a named :class:`PlanIssue` (``dtype-mismatch``,
``mutable-weight``, ``shape-mismatch``) collected into a
:class:`PlanReport`; ``compile_detector(..., verify=True)`` runs the
verifier at export time and raises :class:`PlanVerificationError` on any
issue.  Verification only reads the plan, so a verified detector scores
exactly what an unverified one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlanIssue",
    "PlanReport",
    "PlanVerificationError",
    "check_structure",
    "verify_detector",
    "verify_model",
]


@dataclass(frozen=True)
class PlanIssue:
    """One named verification failure at a plan location."""

    kind: str
    location: str
    message: str

    def format(self) -> str:
        return f"{self.kind} @ {self.location}: {self.message}"


@dataclass
class PlanReport:
    """Everything one :func:`verify_model` run found (empty = verified)."""

    issues: list[PlanIssue] = field(default_factory=list)
    arrays_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def kinds(self) -> list[str]:
        return sorted({issue.kind for issue in self.issues})

    def raise_if_failed(self) -> "PlanReport":
        if self.issues:
            raise PlanVerificationError(self)
        return self


class PlanVerificationError(RuntimeError):
    """Raised by ``compile_detector(..., verify=True)`` on a failed report."""

    def __init__(self, report: PlanReport):
        self.report = report
        details = "\n".join("  " + issue.format() for issue in report.issues)
        super().__init__(
            f"compiled plan failed verification ({len(report.issues)} issue(s)):\n{details}"
        )


# ----------------------------------------------------------------------
# structural interpretation
# ----------------------------------------------------------------------
def _attention_arrays(prefix, attention):
    yield f"{prefix}.wq", attention.wq
    yield f"{prefix}.bq", attention.bq
    yield f"{prefix}.wo", attention.wo
    yield f"{prefix}.bo", attention.bo
    yield f"{prefix}.wqkv", attention.wqkv
    yield f"{prefix}.bqkv", attention.bqkv
    yield f"{prefix}.wkv", attention.wkv
    yield f"{prefix}.bkv", attention.bkv


def _ffn_arrays(prefix, ffn):
    yield f"{prefix}.w1", ffn.w1
    yield f"{prefix}.b1", ffn.b1
    yield f"{prefix}.w2", ffn.w2
    yield f"{prefix}.b2", ffn.b2


def _norm_arrays(prefix, norm):
    yield f"{prefix}.gamma", norm.gamma
    yield f"{prefix}.beta", norm.beta


def _iter_plan_arrays(model):
    temporal = model.temporal
    if temporal is not None:
        yield "temporal.time_embedding.frequencies", temporal.time_embedding.frequencies
        yield "temporal.time_embedding.alpha", temporal.time_embedding.alpha
        yield "temporal.encoder_embedding_w", temporal.encoder_embedding_w
        yield "temporal.encoder_embedding_b", temporal.encoder_embedding_b
        yield "temporal.decoder_embedding_w", temporal.decoder_embedding_w
        yield "temporal.decoder_embedding_b", temporal.decoder_embedding_b
        for index, layer in enumerate(temporal.encoder_layers):
            prefix = f"temporal.encoder_layers[{index}]"
            yield from _attention_arrays(f"{prefix}.self_attention", layer.self_attention)
            yield from _ffn_arrays(f"{prefix}.feed_forward", layer.feed_forward)
            yield from _norm_arrays(f"{prefix}.norm1", layer.norm1)
            yield from _norm_arrays(f"{prefix}.norm2", layer.norm2)
        for index, layer in enumerate(temporal.decoder_layers):
            prefix = f"temporal.decoder_layers[{index}]"
            yield from _attention_arrays(f"{prefix}.self_attention", layer.self_attention)
            yield from _attention_arrays(f"{prefix}.cross_attention", layer.cross_attention)
            yield from _ffn_arrays(f"{prefix}.feed_forward", layer.feed_forward)
            yield from _norm_arrays(f"{prefix}.norm1", layer.norm1)
            yield from _norm_arrays(f"{prefix}.norm2", layer.norm2)
            yield from _norm_arrays(f"{prefix}.norm3", layer.norm3)
        yield from _ffn_arrays("temporal.output_ffn", temporal.output_ffn)
        yield "temporal.output_projection_w", temporal.output_projection_w
        yield "temporal.output_projection_b", temporal.output_projection_b
    noise = model.noise
    if noise is not None:
        yield "noise.weight", noise.weight
        yield "noise.bias", noise.bias
        yield "noise.scales", noise.scales
        yield "noise.inverse_scales", noise.inverse_scales


def _expect_shape(issues, location, array, expected) -> None:
    """``expected`` dims are ints or ``None`` (free)."""
    if array is None:
        return
    shape = array.shape
    if len(shape) != len(expected) or any(
        want is not None and got != want for got, want in zip(shape, expected)
    ):
        rendered = tuple("*" if want is None else want for want in expected)
        issues.append(
            PlanIssue("shape-mismatch", location, f"expected shape {rendered}, got {shape}")
        )


def _check_attention(issues, prefix, attention, d_model) -> None:
    if attention.num_heads <= 0 or d_model % attention.num_heads != 0:
        issues.append(
            PlanIssue(
                "shape-mismatch", prefix,
                f"d_model {d_model} is not divisible by num_heads {attention.num_heads}",
            )
        )
    elif attention.d_head * attention.num_heads != d_model:
        issues.append(
            PlanIssue(
                "shape-mismatch", prefix,
                f"d_head {attention.d_head} * num_heads {attention.num_heads} != "
                f"d_model {d_model}",
            )
        )
    _expect_shape(issues, f"{prefix}.wq", attention.wq, (d_model, d_model))
    _expect_shape(issues, f"{prefix}.bq", attention.bq, (d_model,))
    _expect_shape(issues, f"{prefix}.wo", attention.wo, (d_model, d_model))
    _expect_shape(issues, f"{prefix}.bo", attention.bo, (d_model,))
    _expect_shape(issues, f"{prefix}.wqkv", attention.wqkv, (3, d_model, d_model))
    _expect_shape(issues, f"{prefix}.bqkv", attention.bqkv, (3, 1, 1, d_model))
    _expect_shape(issues, f"{prefix}.wkv", attention.wkv, (2, d_model, d_model))
    _expect_shape(issues, f"{prefix}.bkv", attention.bkv, (2, 1, 1, d_model))


def _check_ffn(issues, prefix, ffn, d_in, d_out) -> None:
    _expect_shape(issues, f"{prefix}.w1", ffn.w1, (d_in, None))
    hidden = ffn.w1.shape[1] if ffn.w1.ndim == 2 else None
    _expect_shape(issues, f"{prefix}.b1", ffn.b1, (hidden,))
    _expect_shape(issues, f"{prefix}.w2", ffn.w2, (hidden, d_out))
    _expect_shape(issues, f"{prefix}.b2", ffn.b2, (d_out,))


def check_structure(model, config) -> list[PlanIssue]:
    """Symbolic shape/dtype propagation over one compiled model's plans."""
    issues: list[PlanIssue] = []
    dtype = np.dtype(model.dtype)
    if dtype.kind != "f":
        issues.append(
            PlanIssue("dtype-mismatch", "model.dtype", f"plan dtype must be float, got {dtype}")
        )
        return issues

    for location, array in _iter_plan_arrays(model):
        if array is None:
            continue
        if array.dtype != dtype:
            issues.append(
                PlanIssue(
                    "dtype-mismatch", location,
                    f"plan dtype is {dtype.name} but array is {array.dtype.name}",
                )
            )
        if array.flags.writeable:
            issues.append(
                PlanIssue(
                    "mutable-weight", location,
                    "plan weights must be write-locked (freeze contract): a "
                    "serving-time mutation would silently fork the numerics",
                )
            )

    variates = int(model.num_variates)
    window = int(config.window)
    short = int(config.short_window)
    omega = short if model.use_short_window else window

    temporal = model.temporal
    if temporal is not None:
        channels = variates if temporal.multivariate_input else 1
        d_model = int(temporal.encoder_embedding_w.shape[-1])
        _expect_shape(
            issues, "temporal.encoder_embedding_w", temporal.encoder_embedding_w,
            (channels, d_model),
        )
        _expect_shape(
            issues, "temporal.encoder_embedding_b", temporal.encoder_embedding_b, (d_model,)
        )
        _expect_shape(
            issues, "temporal.decoder_embedding_w", temporal.decoder_embedding_w,
            (channels, d_model),
        )
        _expect_shape(
            issues, "temporal.decoder_embedding_b", temporal.decoder_embedding_b, (d_model,)
        )
        _expect_shape(
            issues, "temporal.time_embedding.frequencies",
            temporal.time_embedding.frequencies, (d_model,),
        )
        _expect_shape(
            issues, "temporal.time_embedding.alpha", temporal.time_embedding.alpha, (d_model,)
        )
        for index, layer in enumerate(temporal.encoder_layers):
            prefix = f"temporal.encoder_layers[{index}]"
            _check_attention(issues, f"{prefix}.self_attention", layer.self_attention, d_model)
            _check_ffn(issues, f"{prefix}.feed_forward", layer.feed_forward, d_model, d_model)
            _expect_shape(issues, f"{prefix}.norm1.gamma", layer.norm1.gamma, (d_model,))
            _expect_shape(issues, f"{prefix}.norm2.gamma", layer.norm2.gamma, (d_model,))
        for index, layer in enumerate(temporal.decoder_layers):
            prefix = f"temporal.decoder_layers[{index}]"
            _check_attention(issues, f"{prefix}.self_attention", layer.self_attention, d_model)
            _check_attention(issues, f"{prefix}.cross_attention", layer.cross_attention, d_model)
            _check_ffn(issues, f"{prefix}.feed_forward", layer.feed_forward, d_model, d_model)
            _expect_shape(issues, f"{prefix}.norm1.gamma", layer.norm1.gamma, (d_model,))
            _expect_shape(issues, f"{prefix}.norm2.gamma", layer.norm2.gamma, (d_model,))
            _expect_shape(issues, f"{prefix}.norm3.gamma", layer.norm3.gamma, (d_model,))
        _check_ffn(issues, "temporal.output_ffn", temporal.output_ffn, d_model, None)
        head_in = int(temporal.output_ffn.w2.shape[-1])
        _expect_shape(
            issues, "temporal.output_projection_w", temporal.output_projection_w,
            (head_in, channels),
        )
        _expect_shape(
            issues, "temporal.output_projection_b", temporal.output_projection_b, (channels,)
        )

    noise = model.noise
    if noise is not None:
        _expect_shape(issues, "noise.weight", noise.weight, (omega, omega))
        _expect_shape(issues, "noise.bias", noise.bias, (omega,))
        _expect_shape(issues, "noise.scales", noise.scales, (variates,))
        _expect_shape(issues, "noise.inverse_scales", noise.inverse_scales, (variates, 1))
    return issues


def verify_model(model, config) -> PlanReport:
    """Verify one :class:`CompiledModel`'s plans against their structure.

    Runs the structural interpretation over every plan weight (see the
    module docstring); the model is only read, never executed.
    """
    arrays_checked = sum(
        1 for _, array in _iter_plan_arrays(model) if array is not None
    )
    report = PlanReport(arrays_checked=arrays_checked)
    report.issues.extend(check_structure(model, config))
    return report


def verify_detector(detector) -> PlanReport:
    """:func:`verify_model` over a :class:`CompiledDetector`'s plan + config."""
    return verify_model(detector.model, detector.config)
