"""Parity tests for the compiled inference runtime (``repro.runtime``).

The float64 contract is *bit-for-bit* equality with the autograd forward
pass — asserted with ``np.array_equal``, not ``allclose`` — across every
ablation variant, both conditioning modes, all graph modes, the streaming
and fleet serving fronts, and the fused multi-star stack path.
"""

import re

import numpy as np
import pytest

from repro import AeroConfig, AeroDetector
from repro.core.variants import ABLATION_VARIANTS, build_variant
from repro.nn import Tensor
from repro.runtime import CompiledModel, compile_detector
from repro.simulation import ReplayHarness, ScenarioConfig, build_scenario
from repro.streaming import AlertPolicy, FleetManager, StreamingDetector

VARIANTS = sorted(ABLATION_VARIANTS)
WINDOW = 16
SHORT = 6
NUM_STACKS = 3

#: Stack sizes on both sides of the shard-block boundary, from the block size.
STACK_SIZES = {
    "one": lambda block: 1,
    "block-1": lambda block: block - 1,
    "block": lambda block: block,
    "block+1": lambda block: block + 1,
    "2block+3": lambda block: 2 * block + 3,
}


def _make_series(num_points, num_variates, seed=7):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, num_variates)
    t = np.arange(num_points)
    base = 0.5 + 0.3 * np.sin(2.0 * np.pi * t[:, None] / 24.0 + phases[None, :])
    return base + 0.05 * rng.standard_normal((num_points, num_variates))


def _fast_config(**overrides):
    settings = dict(
        window=WINDOW, short_window=SHORT, d_model=8, num_heads=2,
        train_stride=3, max_epochs_stage1=2, max_epochs_stage2=2, batch_size=8,
    )
    settings.update(overrides)
    return AeroConfig(**settings)


@pytest.fixture(scope="module")
def train_series():
    return _make_series(140, 5, seed=7)


@pytest.fixture(scope="module")
def test_series():
    return _make_series(90, 5, seed=11)


@pytest.fixture(scope="module")
def fitted_variants(train_series):
    detectors = {}
    for name in VARIANTS:
        detector = build_variant(name, config=_fast_config())
        detector.fit(train_series)
        detectors[name] = detector
    return detectors


@pytest.fixture(scope="module")
def detector(fitted_variants):
    return fitted_variants["full"]


class TestFloat64Parity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_score_bit_equal_across_variants(self, fitted_variants, test_series, variant):
        det = fitted_variants[variant]
        reference = det.score(test_series)
        compiled = compile_detector(det).score(test_series)
        assert compiled.dtype == np.float64
        assert np.array_equal(reference, compiled)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_detect_bit_equal_across_variants(self, fitted_variants, test_series, variant):
        det = fitted_variants[variant]
        assert np.array_equal(
            det.detect(test_series), compile_detector(det).detect(test_series)
        )

    def test_score_with_timestamps(self, train_series, test_series):
        rng = np.random.default_rng(3)
        train_times = np.cumsum(0.8 + 0.4 * rng.random(len(train_series)))
        test_times = train_times[-1] + np.cumsum(0.8 + 0.4 * rng.random(len(test_series)))
        det = AeroDetector(_fast_config())
        det.fit(train_series, train_times)
        reference = det.score(test_series, test_times)
        assert np.array_equal(reference, compile_detector(det).score(test_series, test_times))

    def test_full_conditioning_parity(self, train_series, test_series):
        det = AeroDetector(_fast_config(conditioning="full"))
        det.fit(train_series)
        assert np.array_equal(
            det.score(test_series), compile_detector(det).score(test_series)
        )

    def test_score_windows_parity(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        longs = np.stack([test_series[i:i + window].T for i in range(0, 40, 5)])
        shorts = longs[:, :, window - short:]
        compiled = compile_detector(detector)
        assert np.array_equal(
            detector.score_windows(longs, shorts), compiled.score_windows(longs, shorts)
        )
        times = np.tile(np.arange(window, dtype=np.float64), (len(longs), 1))
        assert np.array_equal(
            detector.score_windows(longs, shorts, times, times[:, window - short:]),
            compiled.score_windows(longs, shorts, times, times[:, window - short:]),
        )

    def test_forward_intermediates_match(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        longs = test_series[:window].T[None]
        shorts = longs[:, :, window - short:]
        reference = detector.model(longs, shorts)
        compiled = compile_detector(detector).forward(longs, shorts)
        assert np.array_equal(reference.reconstruction, compiled.reconstruction)
        assert np.array_equal(reference.errors, compiled.errors)
        assert np.array_equal(reference.noise_reconstruction, compiled.noise_reconstruction)
        assert np.array_equal(reference.residual, compiled.residual)
        assert np.array_equal(reference.scores, compiled.scores)


class TestFloat32Mode:
    def test_scores_close_and_single_precision(self, detector, test_series):
        compiled = compile_detector(detector, dtype="float32")
        assert compiled.dtype == np.dtype(np.float32)
        scores = compiled.score(test_series)
        assert scores.dtype == np.float32
        reference = detector.score(test_series)
        np.testing.assert_allclose(scores, reference, atol=1e-5, rtol=1e-4)

    def test_labels_match_float64(self, detector, test_series):
        # Tolerance-level score wobble must not flip detection labels here.
        compiled = compile_detector(detector, dtype="float32")
        reference = detector.detect(test_series)
        assert (compiled.detect(test_series) != reference).mean() < 0.01

    def test_unsupported_dtype_rejected(self, detector):
        with pytest.raises(ValueError, match="float64 and float32"):
            compile_detector(detector, dtype="int32")

    def test_large_absolute_timestamps_keep_precision(self, train_series, test_series):
        # Intervals must be differenced in float64: unix-epoch-scale
        # timestamps would be quantized to ~128 s by a float32 cast.
        rng = np.random.default_rng(13)
        epoch = 1.7e9
        train_times = epoch + np.cumsum(20.0 + 10.0 * rng.random(len(train_series)))
        test_times = train_times[-1] + np.cumsum(20.0 + 10.0 * rng.random(len(test_series)))
        det = AeroDetector(_fast_config())
        det.fit(train_series, train_times)
        reference = det.score(test_series, test_times)
        scores32 = compile_detector(det, dtype="float32").score(test_series, test_times)
        np.testing.assert_allclose(scores32, reference, atol=1e-4, rtol=1e-3)


def _random_stack(compiled, num_stacks, seed=0):
    """``(S, W, N)`` scaled serving windows."""
    shape = (num_stacks, compiled.config.window, compiled.num_variates)
    return np.random.default_rng(seed).random(shape)


def _stack_times(compiled, num_stacks, kind):
    """``None``, a shared ``(W,)`` timeline or per-stack ``(S, W)`` timelines."""
    if kind == "none":
        return None
    rng = np.random.default_rng(9)
    window = compiled.config.window
    if kind == "shared":
        return np.cumsum(0.9 + 0.2 * rng.random(window))
    return np.cumsum(0.9 + 0.2 * rng.random((num_stacks, window)), axis=1)


def _unblocked_scores(compiled, stack, timestamps):
    """``score_stack``'s scores from one plan call over the whole stack."""
    window, short = compiled.config.window, compiled.config.short_window
    longs = np.asarray(stack, dtype=compiled.dtype).transpose(0, 2, 1)
    long_times = short_times = None
    if timestamps is not None:
        long_times = np.broadcast_to(timestamps, (len(stack), window))
        short_times = long_times[:, window - short:]
    return compiled.model.forward(
        longs, longs[:, :, window - short:], long_times, short_times
    ).scores


class TestFusedStack:
    def test_score_stack_matches_per_window_calls(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        stack = np.stack([test_series[i:i + window] for i in range(6)])
        compiled = compile_detector(detector)
        fused = compiled.score_stack(stack)
        longs = stack.transpose(0, 2, 1)
        shorts = longs[:, :, window - short:]
        loop = np.stack(
            [detector.score_windows(longs[i:i + 1], shorts[i:i + 1])[0] for i in range(len(stack))]
        )
        assert np.array_equal(fused, loop)

    def test_score_stack_shared_timestamps(self, detector, test_series):
        window, short = detector.config.window, detector.config.short_window
        stack = np.stack([test_series[i:i + window] for i in range(4)])
        times = np.cumsum(0.9 + 0.2 * np.random.default_rng(5).random(window))
        compiled = compile_detector(detector)
        fused = compiled.score_stack(stack, times)
        longs = stack.transpose(0, 2, 1)
        tiled = np.tile(times, (len(stack), 1))
        reference = detector.score_windows(
            longs, longs[:, :, window - short:], tiled, tiled[:, window - short:]
        )
        assert np.array_equal(fused, reference)

    @pytest.mark.parametrize("times", ["none", "shared", "per_stack"])
    @pytest.mark.parametrize("size", sorted(STACK_SIZES))
    def test_blocked_stack_bit_equal_to_unblocked_forward(self, detector, size, times):
        compiled = compile_detector(detector)
        num_stacks = STACK_SIZES[size](compiled.model.block_size)
        stack = _random_stack(compiled, num_stacks)
        timestamps = _stack_times(compiled, num_stacks, times)
        fused = compiled.score_stack(stack, timestamps)
        assert fused.shape == (num_stacks, compiled.num_variates)
        assert np.array_equal(fused, _unblocked_scores(compiled, stack, timestamps))

    def test_blocks_are_consecutive_plan_calls(self, detector, monkeypatch):
        compiled = compile_detector(detector)
        block = compiled.model.block_size
        batches = []
        forward = CompiledModel.forward

        def recording(self, long_windows, *args):
            batches.append(len(long_windows))
            return forward(self, long_windows, *args)

        monkeypatch.setattr(CompiledModel, "forward", recording)
        compiled.score_stack(_random_stack(compiled, block))
        assert batches == [block]
        batches.clear()
        compiled.score_stack(_random_stack(compiled, 2 * block + 3))
        assert batches == [block, block, 3]

    def test_blocked_score_windows(self, detector):
        compiled = compile_detector(detector)
        stack = _random_stack(compiled, 2 * compiled.model.block_size + 3)
        window, short = detector.config.window, detector.config.short_window
        longs = stack.transpose(0, 2, 1)
        assert np.array_equal(
            compiled.score_windows(longs, longs[:, :, window - short:]),
            _unblocked_scores(compiled, stack, None),
        )

    def test_blocked_dynamic_graph_carries_state(self, fitted_variants):
        det = fitted_variants["dynamic_graph"]
        blocked, reference = compile_detector(det), compile_detector(det)
        num_stacks = 2 * blocked.model.block_size + 3
        # The second call continues from the state the first one carried out.
        for seed in (0, 1):
            stack = _random_stack(blocked, num_stacks, seed=seed)
            assert np.array_equal(
                blocked.score_stack(stack), _unblocked_scores(reference, stack, None)
            )
            got, expected = blocked.model.noise, reference.model.noise
            assert np.array_equal(got.last_adjacency, expected.last_adjacency)
            assert np.array_equal(got._dynamic_state, expected._dynamic_state)

    def test_gcn_only_model_is_one_block(self, fitted_variants, monkeypatch):
        compiled = compile_detector(fitted_variants["no_temporal"])
        assert compiled.model.temporal is None
        calls = []
        forward = CompiledModel.forward

        def counting(self, *args):
            calls.append(len(args[0]))
            return forward(self, *args)

        stack = _random_stack(compiled, 4096)
        reference = _unblocked_scores(compiled, stack, None)
        monkeypatch.setattr(CompiledModel, "forward", counting)
        assert np.array_equal(compiled.score_stack(stack), reference)
        assert calls == [4096]

    def test_blocked_float32_stack(self, detector):
        compiled32 = compile_detector(detector, dtype="float32")
        num_stacks = 2 * compiled32.model.block_size + 3
        stack = _random_stack(compiled32, num_stacks)
        times = _stack_times(compiled32, num_stacks, "per_stack")
        scores32 = compiled32.score_stack(stack, times)
        assert scores32.dtype == np.float32
        np.testing.assert_allclose(scores32, _unblocked_scores(compiled32, stack, times))
        reference = _unblocked_scores(compile_detector(detector), stack, times)
        np.testing.assert_allclose(scores32, reference, atol=1e-4, rtol=1e-3)

    def test_score_stack_validation(self, detector, test_series):
        compiled = compile_detector(detector)
        with pytest.raises(ValueError, match="3-D"):
            compiled.score_stack(test_series)
        with pytest.raises(ValueError, match="length"):
            compiled.score_stack(test_series[None, :5, :])


class TestTimeEmbeddingMemo:
    def test_hot_key_survives_cache_overflow(self, fitted_variants):
        """Oldest-inserted eviction: overflow must not dump the hot entry.

        The memo previously cleared the whole cache on overflow, so one
        burst of irregular batch embeddings evicted the steady serving
        cadence along with everything else.
        """
        te = compile_detector(fitted_variants["full"]).model.temporal.time_embedding
        te._cache.clear()
        te._cache_bytes = 0
        rng = np.random.default_rng(17)
        base = np.cumsum(0.8 + 0.4 * rng.random((1, SHORT)), axis=1)
        # Distinct *cadences* (the memo keys on intervals, which are
        # shift-invariant — a translated timeline is the same key).
        for i in range(te.MAX_CACHE):
            te.embed(base * (2.0 + i))
        assert len(te._cache) == te.MAX_CACHE
        _, hot_token = te.embed(base)  # evicts exactly one oldest filler
        assert hot_token is not None
        # A further near-full churn of fresh keys must spare the hot entry.
        for i in range(te.MAX_CACHE - 1):
            te.embed(base * (1000.0 + i))
        _, token_again = te.embed(base)
        assert token_again == hot_token, "hot embedding was evicted by unrelated churn"
        assert len(te._cache) <= te.MAX_CACHE

    def test_equal_content_shares_one_token(self, fitted_variants):
        te = compile_detector(fitted_variants["full"]).model.temporal.time_embedding
        times = np.cumsum(np.full((2, SHORT), 0.5), axis=1)
        embedding_a, token_a = te.embed(times, position_offset=3)
        embedding_b, token_b = te.embed(np.array(times), position_offset=3)
        assert token_a == token_b
        assert embedding_b is embedding_a
        _, token_c = te.embed(times, position_offset=4)
        assert token_c != token_a


class TestDecoderSelfStageCache:
    def test_token_keying_survives_array_identity_reuse(self, fitted_variants):
        """Regression: the stage memo must key on embedding tokens, not id().

        ``id()`` keys forced the memo to pin embeddings alive (or miss
        permanently once an equal-content array arrived at a new address).
        Tokens are content-derived and monotonic: a fresh array with equal
        content hits, different content can never alias.
        """
        plan = compile_detector(fitted_variants["full"]).model.temporal
        te = plan.time_embedding
        offset = WINDOW - SHORT
        times_a = np.cumsum(np.full((NUM_STACKS, SHORT), 0.75), axis=1)
        embedding_a, token_a = te.embed(times_a, position_offset=offset)
        stage_a = plan._decoder_self_stage(embedding_a, token_a)
        # A distinct-but-equal array object (fresh id) still hits the memo.
        embedding_again, token_again = te.embed(np.array(times_a), position_offset=offset)
        assert embedding_again is embedding_a
        assert plan._decoder_self_stage(embedding_again, token_again) is stage_a
        # Different content gets a new token and a genuinely new stage.
        times_b = np.cumsum(np.full((NUM_STACKS, SHORT), 1.25), axis=1)
        embedding_b, token_b = te.embed(times_b, position_offset=offset)
        assert token_b != token_a
        stage_b = plan._decoder_self_stage(embedding_b, token_b)
        assert stage_b is not stage_a
        assert not np.array_equal(np.asarray(stage_b), np.asarray(stage_a))
        # An uncacheable embedding (token None) bypasses the memo but
        # computes the identical stage.
        stage_fresh = plan._decoder_self_stage(embedding_a, None)
        assert stage_fresh is not stage_a
        assert np.array_equal(np.asarray(stage_fresh), np.asarray(stage_a))

    def test_cache_is_bounded(self, fitted_variants):
        plan = compile_detector(fitted_variants["full"]).model.temporal
        te = plan.time_embedding
        offset = WINDOW - SHORT
        for i in range(te.MAX_CACHE + 8):
            times = np.cumsum(np.full((1, SHORT), 0.5 + 0.01 * i), axis=1)
            embedding, token = te.embed(times, position_offset=offset)
            plan._decoder_self_stage(embedding, token)
        assert len(plan._self_stage_cache) <= te.MAX_CACHE


class TestTapeFree:
    def test_compiled_scoring_allocates_no_tensors(self, detector, test_series, monkeypatch):
        compiled = compile_detector(detector)
        counter = {"tensors": 0}
        original = Tensor.__init__

        def counting(self, *args, **kwargs):
            counter["tensors"] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        compiled.score(test_series)
        assert counter["tensors"] == 0

    def test_weights_are_frozen_copies(self, detector, test_series):
        compiled = compile_detector(detector)
        plan = compiled.model.temporal
        with pytest.raises(ValueError):
            plan.encoder_embedding_w[...] = 0.0
        # Mutating the live model must not leak into the compiled plan.
        reference = compiled.score(test_series)
        saved = detector.model.temporal.encoder_embedding.weight.data.copy()
        detector.model.temporal.encoder_embedding.weight.data[:] = 0.0
        try:
            assert np.array_equal(compiled.score(test_series), reference)
        finally:
            detector.model.temporal.encoder_embedding.weight.data[:] = saved


class TestDetectorBackendSwitch:
    def test_backend_kwarg_bit_equal(self, detector, test_series):
        assert np.array_equal(
            detector.score(test_series), detector.score(test_series, backend="compiled")
        )
        assert np.array_equal(
            detector.detect(test_series), detector.detect(test_series, backend="compiled")
        )

    def test_default_backend_detector(self, train_series, test_series):
        reference = AeroDetector(_fast_config())
        reference.fit(train_series)
        compiled_default = AeroDetector(_fast_config(), backend="compiled")
        compiled_default.fit(train_series)
        assert np.array_equal(reference.score(test_series), compiled_default.score(test_series))

    def test_invalid_backend_rejected(self, detector, test_series):
        with pytest.raises(ValueError, match="backend"):
            AeroDetector(backend="tensorflow")
        with pytest.raises(ValueError, match="backend"):
            detector.score(test_series, backend="jit")

    @pytest.mark.parametrize(
        "front",
        [
            lambda det: det.stream(backend="incremental"),
            lambda det: StreamingDetector(det, backend="incremental"),
            lambda det: FleetManager(det, num_shards=2, backend="incremental"),
        ],
        ids=["detector.stream", "StreamingDetector", "FleetManager"],
    )
    def test_removed_incremental_backend_is_rejected(self, detector, front):
        # Every serving front resolves backend names through AeroDetector.
        with pytest.raises(ValueError, match=re.escape(str(AeroDetector.BACKENDS))):
            front(detector)

    def test_compile_requires_fitted(self):
        with pytest.raises(RuntimeError, match="fitted"):
            AeroDetector(_fast_config()).compile()

    def test_compile_is_cached_per_dtype_and_invalidated_by_fit(self, train_series):
        det = AeroDetector(_fast_config())
        det.fit(train_series)
        first = det.compile()
        assert det.compile() is first
        plan32 = det.compile(dtype="float32")
        assert plan32 is not first
        # Both dtypes stay cached side by side.
        assert det.compile() is first
        assert det.compile(dtype="float32") is plan32
        det.fit(train_series)
        assert det.compile() is not first


class TestStreamingOnCompiledBackend:
    def test_stream_scores_bit_equal_to_batch(self, detector, test_series):
        batch_scores = detector.score(test_series)
        stream = detector.stream(backend="compiled")
        assert stream.backend == "compiled"
        assert np.array_equal(stream.score_series(test_series), batch_scores)

    def test_stream_accepts_prebuilt_plan(self, detector, test_series):
        plan = compile_detector(detector, dtype="float32")
        stream = StreamingDetector(detector, backend=plan)
        scores = stream.score_series(test_series)
        np.testing.assert_allclose(scores, detector.score(test_series), atol=1e-5, rtol=1e-4)

    def test_stream_rejects_foreign_backends(self, detector):
        with pytest.raises(TypeError, match="CompiledDetector"):
            StreamingDetector(detector, backend=object())

    def test_dynamic_graph_stream_compiled(self, fitted_variants, test_series):
        det = fitted_variants["dynamic_graph"]
        batch_scores = det.score(test_series)
        stream_scores = det.stream(backend="compiled").score_series(test_series)
        assert np.array_equal(stream_scores, batch_scores)


class TestFleetOnCompiledBackend:
    def test_fleet_bit_equal_to_autograd_fleet(self, detector, test_series):
        num_shards = 3
        rng = np.random.default_rng(9)
        exposures = (
            np.stack([test_series[:30]] * num_shards, axis=1)
            + 0.001 * rng.standard_normal((30, num_shards, test_series.shape[1]))
        )
        autograd = FleetManager(detector, num_shards=num_shards, alert_policy=AlertPolicy())
        compiled = FleetManager(
            detector, num_shards=num_shards, alert_policy=AlertPolicy(), backend="compiled"
        )
        assert compiled.backend == "compiled"
        for result_a, result_c in zip(autograd.run(exposures), compiled.run(exposures)):
            assert np.array_equal(result_a.scores, result_c.scores, equal_nan=True)
            assert np.array_equal(result_a.labels, result_c.labels)

    def test_fleet_from_float32_plan(self, detector, test_series):
        plan = compile_detector(detector, dtype="float32")
        fleet = FleetManager(detector, num_shards=2, backend=plan)
        result = fleet.step(np.stack([test_series[0]] * 2))
        assert result.scores.shape == (2, test_series.shape[1])
        assert result.ready

    def test_fleet_rejects_mismatched_plan(self, detector, train_series):
        other = AeroDetector(_fast_config())
        other.fit(_make_series(140, 3, seed=21))
        with pytest.raises(ValueError, match="variates"):
            FleetManager(detector, num_shards=2, backend=compile_detector(other))


@pytest.fixture(scope="module")
def messy_night():
    """Two shards of five stars with NaN gaps, a dropout, duplicate and
    out-of-order frames: the faults a serving front must ride through."""
    return build_scenario(
        ScenarioConfig(
            num_shards=2, num_variates=5, train_length=50, calibration_length=0,
            night_length=90, num_events=2, num_duplicate_frames=3,
            num_reordered_frames=3, seed=5,
        )
    )


class TestCompiledFrontsUnderFaults:
    """Compiled serving fronts stay bit-equal to autograd ones on messy input."""

    def test_fleet_replay_with_duplicate_and_out_of_order_frames(self, detector, messy_night):
        fleets = [
            FleetManager(detector, num_shards=2, backend=backend, threshold_mode="per_star")
            for backend in ("autograd", "compiled")
        ]
        (_, trace_a), (_, trace_c) = (
            ReplayHarness(fleet, messy_night, dedupe=False).run() for fleet in fleets
        )
        assert np.array_equal(trace_a.scores, trace_c.scores, equal_nan=True)
        assert np.array_equal(trace_a.labels, trace_c.labels)
        assert np.array_equal(trace_a.thresholds, trace_c.thresholds)
        # The night's dropout went through the re-arm guard on both fronts.
        assert fleets[1].health().rejoins == fleets[0].health().rejoins > 0

    def test_fleet_hot_swap_mid_night(self, detector, fitted_variants, messy_night):
        autograd = FleetManager(detector, num_shards=2, backend="autograd")
        compiled = FleetManager(detector, num_shards=2, backend="compiled")
        for tick, frame in enumerate(messy_night.frames()[:50]):
            if tick == 25:
                autograd.swap_model(fitted_variants["static_graph"])
                compiled.swap_model(fitted_variants["static_graph"])
                assert compiled.backend == "compiled"
            result_a = autograd.step(frame.rows, frame.timestamp)
            result_c = compiled.step(frame.rows, frame.timestamp)
            assert result_a.step == result_c.step
            assert np.array_equal(result_a.scores, result_c.scores, equal_nan=True), tick
            assert np.array_equal(result_a.labels, result_c.labels)
            assert np.array_equal(result_a.thresholds, result_c.thresholds)

    def test_stream_chunks_swap_and_adaptive_pot(self, detector, fitted_variants, test_series):
        streams = [
            StreamingDetector(detector, backend=backend, adaptive_pot=True)
            for backend in ("autograd", "compiled")
        ]
        series = test_series[:60].copy()
        series[12:14, 1] = np.nan
        series[30] = np.nan
        cursor = 0
        for chunk in (7, 1, 13, 5, 20, 11, 3):
            if cursor == 21:
                for stream in streams:
                    stream.swap_model(fitted_variants["static_graph"])
            rows = series[cursor:cursor + chunk]
            cursor += chunk
            for result_a, result_c in zip(*(stream.step_many(rows) for stream in streams)):
                assert result_a.index == result_c.index
                assert result_a.ready == result_c.ready
                assert np.array_equal(result_a.scores, result_c.scores, equal_nan=True)
                assert np.array_equal(result_a.labels, result_c.labels)
                if result_a.adaptive_threshold is None:
                    assert result_c.adaptive_threshold is None
                else:
                    assert np.array_equal(
                        result_a.adaptive_threshold, result_c.adaptive_threshold
                    )
        assert streams[1].backend == "compiled"
