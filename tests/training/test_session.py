"""Tests for TrainingSession: checkpoints, resume determinism, validation
splits, best-weight restore, warm starting and the repro.training logger."""

import logging
from pathlib import Path

import numpy as np
import pytest

from repro.core import ABLATION_VARIANTS, AeroDetector, EarlyStopping
from repro.nn import Linear
from repro.training import TrainingSession



# ----------------------------------------------------------------------
# EarlyStopping: best-weight restore (satellite fix)
# ----------------------------------------------------------------------
class TestEarlyStopping:
    def test_plain_loss_monitoring_still_works(self):
        stopper = EarlyStopping(patience=2, min_delta=0.0)
        assert not stopper.step(1.0)
        assert not stopper.step(0.5)
        assert not stopper.step(0.6)
        assert stopper.step(0.7)
        assert stopper.best_loss == 0.5
        assert stopper.best_epoch == 2

    def test_patience_must_be_positive(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_restore_brings_back_best_loss_weights(self):
        module = Linear(2, 2)
        stopper = EarlyStopping(patience=3, min_delta=0.0, module=module)
        snapshots = []
        for epoch, loss in enumerate([1.0, 0.4, 0.9, 0.8, 0.7]):
            module.weight.data = np.full_like(module.weight.data, float(epoch))
            snapshots.append(module.state_dict())
            stopper.step(loss)
        # The last epochs plateaued: weights are from epoch 4, best was epoch 1.
        assert module.weight.data[0, 0] == 4.0
        assert stopper.restore()
        np.testing.assert_array_equal(module.weight.data, snapshots[1]["weight"])
        assert stopper.best_epoch == 2  # 1-based

    def test_restore_without_module_is_a_noop(self):
        stopper = EarlyStopping(patience=2)
        stopper.step(1.0)
        assert not stopper.restore()

    def test_state_dict_roundtrip_preserves_best_state(self):
        module = Linear(3, 1)
        stopper = EarlyStopping(patience=2, min_delta=0.0, module=module)
        stopper.step(0.5)
        module.weight.data = module.weight.data + 1.0
        stopper.step(0.9)

        clone = EarlyStopping(patience=2, min_delta=0.0, module=module)
        clone.load_state_dict(stopper.state_dict())
        assert clone.best_loss == stopper.best_loss
        assert clone.epochs_without_improvement == 1
        assert clone.best_epoch == 1
        assert clone.restore()
        np.testing.assert_array_equal(module.weight.data, stopper.best_state["weight"])

    def test_stage_training_restores_best_epoch_weights(self, tiny_config, train_series, build_setup):
        """End to end: a stage that runs past its best epoch ships the best
        weights, not the post-plateau ones.  A huge ``min_delta`` makes epoch
        1 the (only) improving epoch, so patience forces extra epochs whose
        weights must then be rolled back."""
        config = tiny_config.scaled(
            max_epochs_stage1=6, max_epochs_stage2=1, patience=2, min_delta=10.0
        )
        model, dataset, _ = build_setup(config, train_series)
        session = TrainingSession(model, dataset, config)
        snapshots = []
        previous = 0
        while not session.done:
            session.run(epoch_budget=1, resume=False)
            if session.stage == 1 and session.epochs_completed > previous:
                snapshots.append(model.temporal.state_dict())
                previous = session.epochs_completed
        history = session.history
        # Early stop after 1 best + 2 patience epochs; best is epoch 1.
        assert history.stage1_best_epoch == 1
        assert len(history.stage1_losses) == 3
        final = model.temporal.state_dict()
        assert any(
            not np.array_equal(snapshots[-1][name], snapshots[0][name]) for name in final
        ), "training should have moved the weights past the best epoch"
        for name in final:
            np.testing.assert_array_equal(final[name], snapshots[0][name], err_msg=name)


# ----------------------------------------------------------------------
# Resume determinism (tentpole + satellite test coverage)
# ----------------------------------------------------------------------
RESUME_VARIANTS = ["full", "no_temporal", "no_noise_module", "static_graph", "dynamic_graph"]


def _check_interrupted_resume(variant, config, train_series, tmp_path, build_setup, budget):
    """Stop after ``budget(history)`` epochs, resume from the checkpoint in a
    fresh session, and compare against an uninterrupted run: weights must
    match bit for bit.  Returns the interrupted session."""
    kwargs = ABLATION_VARIANTS[variant]

    model_a, dataset_a, _ = build_setup(config, train_series, **kwargs)
    history_a = TrainingSession(model_a, dataset_a, config).run()

    checkpoint = tmp_path / f"{variant}.npz"
    model_b, dataset_b, _ = build_setup(config, train_series, **kwargs)
    session_b = TrainingSession(model_b, dataset_b, config, checkpoint_path=checkpoint)
    session_b.run(epoch_budget=budget(history_a))

    # "Crash": throw the half-trained model away, rebuild from scratch, resume.
    model_c, dataset_c, _ = build_setup(config, train_series, **kwargs)
    session_c = TrainingSession.restore(checkpoint, model_c, dataset_c)
    history_c = session_c.run()

    assert session_c.done
    state_a, state_c = model_a.state_dict(), model_c.state_dict()
    assert set(state_a) == set(state_c)
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_c[name], err_msg=name)
    assert history_c.stage1_losses == history_a.stage1_losses
    assert history_c.stage2_losses == history_a.stage2_losses
    assert history_c.stage1_best_epoch == history_a.stage1_best_epoch
    assert history_c.stage2_best_epoch == history_a.stage2_best_epoch
    return session_b


@pytest.mark.parametrize("variant", RESUME_VARIANTS)
def test_interrupted_resume_is_bit_identical(variant, tiny_config, train_series, tmp_path, build_setup):
    """Interrupt after two epochs (inside stage 1 when the variant has one)."""
    _check_interrupted_resume(
        variant, tiny_config, train_series, tmp_path, build_setup, lambda history: 2
    )


@pytest.mark.parametrize("variant", ["full", "static_graph", "dynamic_graph"])
def test_interrupted_resume_inside_stage2_is_bit_identical(
    variant, tiny_config, train_series, tmp_path, build_setup
):
    """Interrupt after the first stage-2 epoch: the resumed session must
    rebuild the frozen stage-1 reconstructions from the checkpoint's weights."""
    session = _check_interrupted_resume(
        variant, tiny_config, train_series, tmp_path, build_setup,
        lambda history: history.stage1_epochs + 1,
    )
    assert session.stage == 2 and session.epochs_completed == 1


def test_stage2_runs_the_frozen_temporal_forward_once(tiny_config, train_series, build_setup):
    """Stage 2 reconstructs each training window once, not once per epoch."""
    config = tiny_config.scaled(patience=10)
    model, dataset, _ = build_setup(config, train_series)
    session = TrainingSession(model, dataset, config)
    calls = []
    original = model.temporal_forward

    def counting(*args, **kwargs):
        if session.stage == 2:
            calls.append(len(args[0]))
        return original(*args, **kwargs)

    model.temporal_forward = counting
    history = session.run()
    assert session.done and history.stage2_epochs == config.max_epochs_stage2 > 1
    batches = -(-len(dataset) // config.batch_size)
    assert len(calls) == batches
    assert sum(calls) == len(dataset)
    assert session._stage2_cache is None


def test_detector_fit_resume_after_interruption(tiny_config, train_series, tmp_path, monkeypatch):
    """Detector-level acceptance: interrupt fit() mid-training, refit with
    resume=True, and match the uninterrupted run's weights and train scores."""
    config = tiny_config
    reference = AeroDetector(config).fit(train_series)

    checkpoint = tmp_path / "session.npz"
    calls = {"count": 0}
    original = TrainingSession._advance

    def interrupting(self):
        calls["count"] += 1
        if calls["count"] > 3:
            raise KeyboardInterrupt("simulated crash")
        return original(self)

    monkeypatch.setattr(TrainingSession, "_advance", interrupting)
    crashed = AeroDetector(config)
    with pytest.raises(KeyboardInterrupt):
        crashed.fit(train_series, checkpoint_path=checkpoint)
    monkeypatch.setattr(TrainingSession, "_advance", original)
    assert checkpoint.exists()

    resumed = AeroDetector(config)
    resumed.fit(train_series, checkpoint_path=checkpoint, resume=True)

    state_ref, state_res = reference.model.state_dict(), resumed.model.state_dict()
    for name in state_ref:
        np.testing.assert_array_equal(state_ref[name], state_res[name], err_msg=name)
    np.testing.assert_array_equal(reference.train_scores_, resumed.train_scores_)
    assert resumed.history.stage1_losses == reference.history.stage1_losses
    assert resumed.history.stage2_losses == reference.history.stage2_losses


def test_resume_of_completed_checkpoint_skips_training(tiny_config, train_series, tmp_path, build_setup):
    checkpoint = tmp_path / "done.npz"
    first = AeroDetector(tiny_config)
    first.fit(train_series, checkpoint_path=checkpoint)

    model, dataset, _ = build_setup(tiny_config, train_series)
    session = TrainingSession.restore(checkpoint, model, dataset)
    assert session.done
    history = session.run()  # returns immediately
    assert history.stage1_losses == first.history.stage1_losses
    for name, value in first.model.state_dict().items():
        np.testing.assert_array_equal(value, model.state_dict()[name])


# ----------------------------------------------------------------------
# Validation-split early stopping
# ----------------------------------------------------------------------
class TestValidationSplit:
    def test_holdout_losses_are_recorded(self, tiny_config, train_series):
        detector = AeroDetector(tiny_config)
        detector.fit(train_series, validation_split=0.25)
        history = detector.history
        assert len(history.stage1_val_losses) == len(history.stage1_losses) > 0
        assert len(history.stage2_val_losses) == len(history.stage2_losses) > 0
        assert all(np.isfinite(history.stage1_val_losses))
        assert history.stage1_best_epoch >= 1

    def test_session_reports_split_sizes(self, tiny_config, train_series, build_setup):
        model, dataset, _ = build_setup(tiny_config, train_series)
        total = len(dataset)
        session = TrainingSession(model, dataset, tiny_config, validation_split=0.25)
        assert session.num_val_windows == int(np.ceil(0.25 * total))
        assert session.num_train_windows == total - session.num_val_windows

    def test_invalid_split_rejected(self, tiny_config, train_series, build_setup):
        model, dataset, _ = build_setup(tiny_config, train_series)
        with pytest.raises(ValueError):
            TrainingSession(model, dataset, tiny_config, validation_split=1.0)
        with pytest.raises(ValueError):
            TrainingSession(model, dataset, tiny_config, validation_split=-0.1)

    def test_validation_does_not_change_training_trajectory(self, tiny_config, train_series, build_setup):
        """The holdout forwards must not perturb training: a split session's
        training losses over the same training windows match a session built
        directly over those windows."""
        model_a, dataset_a, _ = build_setup(tiny_config, train_series)
        split_session = TrainingSession(model_a, dataset_a, tiny_config, validation_split=0.25)
        split_history = split_session.run()

        model_b, dataset_b, _ = build_setup(tiny_config, train_series)
        train_only, _ = dataset_b.split(0.25)
        plain_history = TrainingSession(model_b, train_only, tiny_config).run()

        # The optimization trajectory (per-epoch training losses) is identical;
        # only the *monitored* metric — and therefore which epoch's weights are
        # restored at the end of a stage — may differ.
        assert split_history.stage1_losses == plain_history.stage1_losses
        assert split_history.stage2_losses == plain_history.stage2_losses


# ----------------------------------------------------------------------
# Warm starting
# ----------------------------------------------------------------------
class TestWarmStart:
    def test_fit_warm_start_initialises_from_checkpoint(
        self, tiny_config, train_series, tmp_path
    , build_setup):
        donor = AeroDetector(tiny_config).fit(train_series)
        artifact = donor.save(tmp_path / "donor.npz")

        model, dataset, _ = build_setup(tiny_config, train_series)
        session = TrainingSession(model, dataset, tiny_config)
        session.warm_start_from(artifact)
        for name, value in donor.model.state_dict().items():
            np.testing.assert_array_equal(value, model.state_dict()[name])

    def test_warm_start_after_training_started_is_rejected(
        self, tiny_config, train_series, tmp_path
    , build_setup):
        donor = AeroDetector(tiny_config).fit(train_series)
        artifact = donor.save(tmp_path / "donor.npz")
        model, dataset, _ = build_setup(tiny_config, train_series)
        session = TrainingSession(model, dataset, tiny_config)
        session.run(epoch_budget=1)
        with pytest.raises(RuntimeError):
            session.warm_start_from(artifact)

    def test_warm_start_architecture_mismatch_names_checkpoint(
        self, tiny_config, train_series, tmp_path
    , build_setup):
        donor = AeroDetector(tiny_config).fit(train_series)
        artifact = donor.save(tmp_path / "donor.npz")
        other = tiny_config.scaled(d_model=16)
        model, dataset, _ = build_setup(other, train_series)
        session = TrainingSession(model, dataset, other)
        with pytest.raises((KeyError, ValueError), match="donor.npz"):
            session.warm_start_from(artifact)

    def test_detector_fit_accepts_warm_start(self, tiny_config, train_series, tmp_path):
        donor = AeroDetector(tiny_config).fit(train_series)
        artifact = donor.save(tmp_path / "donor.npz")
        config = tiny_config.scaled(max_epochs_stage1=1, max_epochs_stage2=1)
        tuned = AeroDetector(config)
        tuned.fit(train_series, warm_start=artifact)
        assert tuned.history.stage1_epochs == 1


# ----------------------------------------------------------------------
# Checkpoint validation
# ----------------------------------------------------------------------
class TestCheckpointValidation:
    def test_missing_checkpoint_raises(self, tiny_config, train_series, tmp_path, build_setup):
        model, dataset, _ = build_setup(tiny_config, train_series)
        session = TrainingSession(model, dataset, tiny_config)
        with pytest.raises(FileNotFoundError):
            session.load_checkpoint(tmp_path / "nope.npz")

    def test_config_mismatch_rejected(self, tiny_config, train_series, tmp_path, build_setup):
        checkpoint = tmp_path / "session.npz"
        model, dataset, _ = build_setup(tiny_config, train_series)
        TrainingSession(model, dataset, tiny_config, checkpoint_path=checkpoint).run(
            epoch_budget=1
        )
        other = tiny_config.scaled(learning_rate=5e-3)
        model2, dataset2, _ = build_setup(other, train_series)
        session = TrainingSession(model2, dataset2, other)
        with pytest.raises(ValueError, match="different configuration"):
            session.load_checkpoint(checkpoint)

    def test_validation_split_mismatch_rejected(self, tiny_config, train_series, tmp_path, build_setup):
        checkpoint = tmp_path / "session.npz"
        model, dataset, _ = build_setup(tiny_config, train_series)
        TrainingSession(
            model, dataset, tiny_config, validation_split=0.25, checkpoint_path=checkpoint
        ).run(epoch_budget=1)
        model2, dataset2, _ = build_setup(tiny_config, train_series)
        session = TrainingSession(model2, dataset2, tiny_config)
        with pytest.raises(ValueError, match="validation_split"):
            session.load_checkpoint(checkpoint)

    def test_resume_over_different_data_rejected(
        self, tiny_config, train_series, tmp_path, build_setup
    ):
        """A checkpoint must refuse to resume over a different series —
        otherwise a completed checkpoint + resume=True would silently skip
        training on refreshed data and serve stale weights."""
        checkpoint = tmp_path / "session.npz"
        model, dataset, _ = build_setup(tiny_config, train_series)
        TrainingSession(model, dataset, tiny_config, checkpoint_path=checkpoint).run(
            epoch_budget=1
        )
        # Note: a pure shift would be normalised away by the MinMax scaler
        # (identical scaled series -> resume genuinely valid), so drift the
        # shape of the series, not just its offset.
        drifted = train_series + np.random.default_rng(1).normal(0.0, 0.05, train_series.shape)
        model2, dataset2, _ = build_setup(tiny_config, drifted)
        session = TrainingSession(
            model2, dataset2, tiny_config, checkpoint_path=checkpoint
        )
        with pytest.raises(ValueError, match="different training data"):
            session.run()
        # Detector level: fit(resume=True) on new data fails loudly too.
        first = AeroDetector(tiny_config)
        first.fit(train_series, checkpoint_path=tmp_path / "det.npz")
        refreshed = AeroDetector(tiny_config)
        with pytest.raises(ValueError, match="different training data"):
            refreshed.fit(drifted, checkpoint_path=tmp_path / "det.npz", resume=True)
        # Same series but different observation timestamps is different data
        # too: the time-embedding features change.
        t1 = np.arange(len(train_series), dtype=np.float64)
        timed = AeroDetector(tiny_config)
        timed.fit(train_series, t1, checkpoint_path=tmp_path / "timed.npz")
        retimed = AeroDetector(tiny_config)
        with pytest.raises(ValueError, match="different training data"):
            retimed.fit(
                train_series, t1 * 1.5, checkpoint_path=tmp_path / "timed.npz", resume=True
            )

    def test_non_session_archive_rejected(self, tiny_config, train_series, tmp_path, build_setup):
        detector = AeroDetector(tiny_config).fit(train_series)
        artifact = detector.save(tmp_path / "detector.npz")
        model, dataset, _ = build_setup(tiny_config, train_series)
        session = TrainingSession(model, dataset, tiny_config)
        with pytest.raises(ValueError, match="checkpoint"):
            session.load_checkpoint(artifact)

    def test_save_without_path_requires_configuration(self, tiny_config, train_series, build_setup):
        model, dataset, _ = build_setup(tiny_config, train_series)
        session = TrainingSession(model, dataset, tiny_config)
        with pytest.raises(ValueError):
            session.save_checkpoint()


# ----------------------------------------------------------------------
# History persistence in detector checkpoints (satellite)
# ----------------------------------------------------------------------
def test_detector_checkpoint_roundtrips_full_history(tiny_config, train_series, tmp_path):
    detector = AeroDetector(tiny_config)
    detector.fit(train_series, validation_split=0.25)
    path = detector.save(tmp_path / "detector.npz")
    restored = AeroDetector.load(path)
    assert restored.history is not None
    assert restored.history.stage1_losses == detector.history.stage1_losses
    assert restored.history.stage2_losses == detector.history.stage2_losses
    assert restored.history.stage1_val_losses == detector.history.stage1_val_losses
    assert restored.history.stage2_val_losses == detector.history.stage2_val_losses
    assert restored.history.stage1_best_epoch == detector.history.stage1_best_epoch
    assert restored.history.stage2_best_epoch == detector.history.stage2_best_epoch


# ----------------------------------------------------------------------
# Logging (satellite: no bare prints, namespaced logger)
# ----------------------------------------------------------------------
class TestTrainingLogging:
    def test_verbose_fit_logs_through_repro_training(
        self, tiny_config, train_series, caplog, capsys
    ):
        with caplog.at_level(logging.INFO, logger="repro.training"):
            AeroDetector(tiny_config, verbose=True).fit(train_series)
        assert caplog.records, "verbose training should emit log records"
        assert all(r.name.startswith("repro.training") for r in caplog.records)
        assert any("[stage 1]" in r.getMessage() for r in caplog.records)
        # Nothing goes to stdout anymore — fleet runs capture the logger instead.
        assert capsys.readouterr().out == ""

    def test_quiet_fit_logs_at_debug_only(self, tiny_config, train_series, caplog):
        with caplog.at_level(logging.INFO, logger="repro.training"):
            AeroDetector(tiny_config).fit(train_series)
        assert not [r for r in caplog.records if r.levelno >= logging.INFO]

    def test_verbose_is_visible_without_logging_config(self):
        """In a bare interpreter (no logging setup at all), verbose=True must
        still show per-epoch progress — the historical print() behaviour."""
        import subprocess
        import sys

        code = (
            "import numpy as np\n"
            "from repro.core import AeroConfig, AeroDetector\n"
            "cfg = AeroConfig.fast(window=16, short_window=6).scaled(\n"
            "    d_model=8, num_heads=2, max_epochs_stage1=1, max_epochs_stage2=1)\n"
            "series = np.random.default_rng(0).normal(10, 1, (120, 2))\n"
            "AeroDetector(cfg, verbose=True).fit(series)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        assert "[stage 1] epoch 1" in result.stderr
        assert "[stage 2] epoch 1" in result.stderr


# ----------------------------------------------------------------------
# Budgeted stepping
# ----------------------------------------------------------------------
def test_epoch_budget_pauses_and_continues_in_memory(tiny_config, train_series, build_setup):
    model, dataset, _ = build_setup(tiny_config, train_series)
    session = TrainingSession(model, dataset, tiny_config)
    session.run(epoch_budget=1)
    assert not session.done
    assert session.stage == 1
    assert session.epochs_completed == 1
    history = session.run()
    assert session.done
    assert session.stage is None
    assert history.stage1_epochs >= 1 and history.stage2_epochs >= 1
    with pytest.raises(ValueError):
        session.run(epoch_budget=0)
