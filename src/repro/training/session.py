"""Resumable two-stage training sessions (Algorithm 1, fleet-scale edition).

:class:`TrainingSession` is the training engine behind
:class:`repro.core.AeroTrainer` / :meth:`repro.core.AeroDetector.fit`.  It
runs the same two-stage loop — stage 1 fits the temporal reconstruction
module, stage 2 freezes it and fits the concurrent-noise module — but adds
the machinery a fleet of thousands of per-star models needs:

* **epoch-level checkpoint/resume** — after every epoch the full training
  state (model weights, optimizer moments, early-stopping state, RNG bit
  state, loss history) can be serialized into one ``.npz`` artifact; a
  resumed session continues *bit-identically*, as if it had never stopped;
* **validation-split early stopping** — an optional chronological holdout of
  the training windows whose loss drives early stopping instead of the
  training loss;
* **best-weight restore** — each stage ends by restoring the weights of its
  best-loss epoch rather than keeping the last (post-plateau) epoch;
* **warm starting** — a session can initialise its model from an existing
  detector checkpoint and fine-tune, the cheap refresh path for drifted
  stars;
* **budgeted stepping** — ``run(epoch_budget=k)`` trains at most ``k``
  epochs and returns, so schedulers can time-slice training work.

Everything logs through the namespaced ``repro.training`` logger so
fleet-scale runs can be filtered and captured per subsystem.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..nn import Adam, Tensor, clip_grad_norm, mse_loss, no_grad
from ..nn.serialization import load_arrays, save_arrays
from ..obs.metrics import get_registry
from ..obs.tracing import trace

if TYPE_CHECKING:  # pragma: no cover - imports only for type checkers
    from ..core.config import AeroConfig
    from ..core.model import AeroModel
    from ..data.windows import WindowDataset
    from ..nn import Module

__all__ = ["TrainingHistory", "EarlyStopping", "TrainingSession"]

logger = logging.getLogger("repro.training.session")

_verbose_handler: logging.Handler | None = None


def _ensure_verbose_output() -> None:
    """Make ``verbose=True`` visible when the application configured no logging.

    The historical behaviour was a bare ``print`` per epoch; after the move
    to the ``repro.training`` logger, a user who never touches the
    ``logging`` module would silently lose that output (INFO records die in
    the last-resort WARNING handler).  If — and only if — neither the
    ``repro.training`` logger nor the root logger has any handler, attach a
    minimal stderr handler once.  Applications that do configure logging
    keep full control: their handlers and levels are respected untouched.
    """
    global _verbose_handler
    namespace = logging.getLogger("repro.training")
    if _verbose_handler is not None or namespace.handlers or logging.getLogger().handlers:
        return
    _verbose_handler = logging.StreamHandler()
    _verbose_handler.setFormatter(logging.Formatter("%(message)s"))
    namespace.addHandler(_verbose_handler)
    if namespace.getEffectiveLevel() > logging.INFO:
        namespace.setLevel(logging.INFO)


@dataclass
class TrainingHistory:
    """Per-epoch losses of both training stages.

    ``stage*_losses`` are the training losses (mean over batches, matching
    the optimizer's objective); ``stage*_val_losses`` are populated only when
    the session holds out a validation split.  ``stage*_best_epoch`` is the
    1-based epoch whose monitored loss was best — the epoch whose weights
    the stage restored — or ``0`` when the stage did not run.
    """

    stage1_losses: list[float] = field(default_factory=list)
    stage2_losses: list[float] = field(default_factory=list)
    stage1_val_losses: list[float] = field(default_factory=list)
    stage2_val_losses: list[float] = field(default_factory=list)
    stage1_best_epoch: int = 0
    stage2_best_epoch: int = 0

    @property
    def stage1_epochs(self) -> int:
        return len(self.stage1_losses)

    @property
    def stage2_epochs(self) -> int:
        return len(self.stage2_losses)


class EarlyStopping:
    """Stop training when the loss has not improved for ``patience`` epochs.

    When constructed with a ``module``, every improving epoch snapshots the
    module's weights; :meth:`restore` puts the best-loss weights back — so a
    stage that ran ``patience`` epochs past its optimum does not ship the
    plateau weights.
    """

    def __init__(self, patience: int = 5, min_delta: float = 1e-5, module: "Module | None" = None):
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience
        self.min_delta = min_delta
        self.module = module
        self.best_loss = np.inf
        self.epochs_without_improvement = 0
        self.epochs_seen = 0
        self.best_epoch = 0
        self.best_state: dict[str, np.ndarray] | None = None

    def step(self, loss: float) -> bool:
        """Record one epoch's loss; return ``True`` if training should stop."""
        self.epochs_seen += 1
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.epochs_without_improvement = 0
            self.best_epoch = self.epochs_seen
            if self.module is not None:
                self.best_state = self.module.state_dict()
            return False
        self.epochs_without_improvement += 1
        return self.epochs_without_improvement >= self.patience

    def restore(self) -> bool:
        """Load the best-loss weights back into the module, if snapshotted."""
        if self.module is None or self.best_state is None:
            return False
        self.module.load_state_dict(self.best_state)
        return True

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat-array state for session checkpoints (includes best weights)."""
        state: dict[str, np.ndarray] = {
            "best_loss": np.asarray(self.best_loss, dtype=np.float64),
            "epochs_without_improvement": np.asarray(self.epochs_without_improvement, dtype=np.int64),
            "epochs_seen": np.asarray(self.epochs_seen, dtype=np.int64),
            "best_epoch": np.asarray(self.best_epoch, dtype=np.int64),
        }
        for name, value in (self.best_state or {}).items():
            state[f"best.{name}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        scalars = ("best_loss", "epochs_without_improvement", "epochs_seen", "best_epoch")
        missing = [key for key in scalars if key not in state]
        if missing:
            raise KeyError(f"EarlyStopping state is missing {missing}")
        self.best_loss = float(state["best_loss"])
        self.epochs_without_improvement = int(state["epochs_without_improvement"])
        self.epochs_seen = int(state["epochs_seen"])
        self.best_epoch = int(state["best_epoch"])
        best = {
            name[len("best."):]: value
            for name, value in state.items()
            if name.startswith("best.")
        }
        self.best_state = best or None


class TrainingSession:
    """Checkpointable driver of the two-stage AERO training loop.

    Parameters
    ----------
    model:
        The :class:`~repro.core.AeroModel` to train (any ablation variant).
    window_dataset:
        Training windows (:class:`~repro.data.windows.WindowDataset`).
    config:
        The :class:`~repro.core.AeroConfig` holding optimizer settings,
        epoch limits and the shuffling seed.
    validation_split:
        Fraction of the windows (the chronologically *last* ones) held out;
        their loss drives early stopping and best-weight selection.  ``0``
        (default) monitors the training loss, matching the paper's loop.
    checkpoint_path:
        Where ``run()`` writes its epoch-level checkpoints.  ``None``
        disables automatic checkpointing (``save_checkpoint(path)`` still
        works on demand).
    checkpoint_every:
        Write a checkpoint every this many epochs (default 1: every epoch).
    verbose:
        Log epoch lines at INFO level instead of DEBUG.
    """

    CHECKPOINT_FORMAT = "aero-training-session"
    CHECKPOINT_VERSION = 1

    def __init__(
        self,
        model: "AeroModel",
        window_dataset: "WindowDataset",
        config: "AeroConfig",
        *,
        validation_split: float = 0.0,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 1,
        verbose: bool = False,
    ):
        if not 0.0 <= validation_split < 1.0:
            raise ValueError(f"validation_split must be in [0, 1), got {validation_split}")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        self.model = model
        self.config = config
        self.validation_split = float(validation_split)
        self.checkpoint_path = None if checkpoint_path is None else Path(checkpoint_path)
        self.checkpoint_every = checkpoint_every
        self.verbose = verbose

        if validation_split:
            self._train_windows, self._val_windows = window_dataset.split(validation_split)
        else:
            self._train_windows, self._val_windows = window_dataset, None
        self._window_dataset = window_dataset
        self._data_fingerprint: dict | None = None  # hashed lazily, see below
        # Stage-2 reconstructions are constant (the temporal module is
        # frozen); computed once on first use, see _stage2_reconstructions
        # and _validation_loss.
        self._stage2_cache: np.ndarray | None = None
        self._val_stage2_cache: list[tuple[np.ndarray, np.ndarray]] | None = None
        if verbose:
            _ensure_verbose_output()

        self.history = TrainingHistory()
        self._rng = np.random.default_rng(config.seed)
        self._stages = [s for s in (1, 2) if self._stage_module(s) is not None]
        self._cursor = 0          # index into self._stages
        self._epoch = 0           # epochs completed in the current stage
        self._stop = False        # early stop pending for the current stage
        self._done = False
        self._optimizer: Adam | None = None
        self._stopper: EarlyStopping | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def stage(self) -> int | None:
        """The stage (1 or 2) currently being trained, or ``None`` when done."""
        return None if self._done else self._stages[self._cursor]

    @property
    def epochs_completed(self) -> int:
        """Epochs completed in the current stage."""
        return self._epoch

    @property
    def num_train_windows(self) -> int:
        return len(self._train_windows)

    @property
    def num_val_windows(self) -> int:
        return 0 if self._val_windows is None else len(self._val_windows)

    def _log(self, message: str) -> None:
        logger.log(logging.INFO if self.verbose else logging.DEBUG, message)

    def _stage_module(self, stage: int):
        return self.model.temporal if stage == 1 else self.model.noise

    @property
    def data_fingerprint(self) -> dict:
        """Identify the training data so a checkpoint can refuse to resume
        over different data (which would otherwise silently skip training or
        continue a different trajectory).  Covers the series *and* the
        observation timestamps — the time-embedding features — and is hashed
        lazily: sessions that never checkpoint never pay for it."""
        if self._data_fingerprint is None:
            import hashlib

            dataset = self._window_dataset
            digest = hashlib.sha256(np.ascontiguousarray(dataset.series).tobytes())
            digest.update(np.ascontiguousarray(dataset.timestamps).tobytes())
            self._data_fingerprint = {
                "shape": list(dataset.series.shape),
                "windows": len(dataset),
                "digest": digest.hexdigest(),
            }
        return self._data_fingerprint

    def _max_epochs(self, stage: int) -> int:
        return self.config.max_epochs_stage1 if stage == 1 else self.config.max_epochs_stage2

    # ------------------------------------------------------------------
    # warm start
    # ------------------------------------------------------------------
    def warm_start_from(self, checkpoint: str | Path) -> None:
        """Initialise the model's weights from an existing checkpoint.

        ``checkpoint`` may be an :meth:`AeroDetector.save` artifact (weights
        under ``model.*`` keys) or a bare :func:`~repro.nn.save_module`
        archive.  This is the fine-tuning path for drifted stars: start from
        the previously published weights and train for a few epochs instead
        of from scratch.  Must be called before any epoch has run.
        """
        if self._epoch or self._cursor or self._done:
            raise RuntimeError("warm_start_from() must be called before training starts")
        checkpoint = Path(checkpoint)
        arrays = load_arrays(checkpoint)
        state = {
            name[len("model."):]: value
            for name, value in arrays.items()
            if name.startswith("model.")
        } or {name: value for name, value in arrays.items() if name != "meta"}
        try:
            self.model.load_state_dict(state)
        except (KeyError, ValueError) as error:
            raise type(error)(
                f"warm-start checkpoint {checkpoint} does not match the model: {error}"
            ) from error
        self._log(f"[session] warm-started weights from {checkpoint}")

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(
        self,
        epoch_budget: int | None = None,
        resume: bool = True,
        warm_start: str | Path | None = None,
    ) -> TrainingHistory:
        """Train until done (or until ``epoch_budget`` epochs have run).

        With ``resume=True`` (default) and an existing ``checkpoint_path``,
        the session first restores that checkpoint and continues from it —
        producing *bit-identical* final weights to an uninterrupted run.
        ``warm_start`` initialises a *fresh* session's weights from an
        existing detector artifact; it is ignored when a checkpoint is
        actually resumed (the checkpoint's weights win).  Returns the
        (possibly still growing) :class:`TrainingHistory`.
        """
        if epoch_budget is not None and epoch_budget < 1:
            raise ValueError("epoch_budget must be at least 1")
        fresh = not self._done and self._epoch == 0 and self._cursor == 0
        resuming = (
            resume
            and fresh
            and self.checkpoint_path is not None
            and self.checkpoint_path.exists()
        )
        if resuming:
            self.load_checkpoint(self.checkpoint_path)
        elif warm_start is not None and fresh:
            self.warm_start_from(warm_start)
        budget = np.inf if epoch_budget is None else epoch_budget
        if not self._done:
            self.model.train()
        while not self._done and budget > 0:
            budget -= self._advance()
        if self._done:
            self.model.eval()
        return self.history

    def _advance(self) -> int:
        """Run one epoch (returns 1) or perform one stage transition (returns 0)."""
        stage = self._stages[self._cursor]
        if self._optimizer is None:
            self._begin_stage(stage)
        if self._stop or self._epoch >= self._max_epochs(stage):
            self._finish_stage(stage)
            return 0

        # Telemetry resolves the *current* defaults per epoch (long-lived
        # sessions honour enable/disable immediately); epochs are seconds,
        # so the lookups are noise.
        started = time.perf_counter()
        with trace(f"training.stage{stage}"):
            with trace("training.epoch"):
                loss = self._train_epoch(stage)
            if self._val_windows is None:
                val_loss = None
            else:
                with trace("training.validation"):
                    val_loss = self._validation_loss(stage)
        registry = get_registry()
        registry.counter(
            "training_epochs_total", "Training epochs completed, by stage",
            labels=("stage",),
        ).labels(stage=str(stage)).inc()
        registry.histogram(
            "training_epoch_seconds", "Wall-clock duration of one training epoch"
        ).observe(time.perf_counter() - started)
        if stage == 1:
            self.history.stage1_losses.append(loss)
            if val_loss is not None:
                self.history.stage1_val_losses.append(val_loss)
        else:
            self.history.stage2_losses.append(loss)
            if val_loss is not None:
                self.history.stage2_val_losses.append(val_loss)
        self._epoch += 1
        monitored = loss if val_loss is None else val_loss
        self._stop = self._stopper.step(monitored)
        suffix = "" if val_loss is None else f", val = {val_loss:.6f}"
        self._log(f"[stage {stage}] epoch {self._epoch}: loss = {loss:.6f}{suffix}")
        if self.checkpoint_path is not None and self._epoch % self.checkpoint_every == 0:
            self.save_checkpoint(self.checkpoint_path)
        return 1

    def _begin_stage(self, stage: int) -> None:
        module = self._stage_module(stage)
        self._optimizer = Adam(module.parameters(), lr=self.config.learning_rate)
        self._stopper = EarlyStopping(self.config.patience, self.config.min_delta, module=module)
        if stage == 2 and self.model.noise.graph_mode == "dynamic":
            self.model.noise.reset_dynamic_state()

    def _finish_stage(self, stage: int) -> None:
        if self._stop:
            self._log(f"[stage {stage}] early stop at epoch {self._epoch}")
        restored = self._stopper.restore() if self._stopper is not None else False
        best_epoch = self._stopper.best_epoch if self._stopper is not None else 0
        if restored and best_epoch != self._epoch:
            self._log(f"[stage {stage}] restored best weights from epoch {best_epoch}")
        if stage == 1:
            self.history.stage1_best_epoch = best_epoch
        else:
            self.history.stage2_best_epoch = best_epoch
        if stage == 2:
            self._stage2_cache = None
        self._optimizer = None
        self._stopper = None
        self._stop = False
        self._epoch = 0
        self._cursor += 1
        if self._cursor >= len(self._stages):
            self._done = True
            self.model.eval()
            if self.checkpoint_path is not None:
                self.save_checkpoint(self.checkpoint_path)

    # ------------------------------------------------------------------
    # epoch bodies (Algorithm 1)
    # ------------------------------------------------------------------
    def _train_epoch(self, stage: int) -> float:
        return self._stage1_epoch() if stage == 1 else self._stage2_epoch()

    def _stage1_epoch(self) -> float:
        model, config = self.model, self.config
        losses = []
        for batch in self._train_windows.batches(config.batch_size, shuffle=True, rng=self._rng):
            target = model._target(batch.long, batch.short)
            prediction = model.temporal_forward(
                batch.long, batch.short, batch.long_times, batch.short_times
            )
            loss = mse_loss(prediction, Tensor(target))
            self._optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(model.temporal.parameters(), config.grad_clip)
            self._optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    def _stage2_epoch(self) -> float:
        model, config = self.model, self.config
        reconstructions = self._stage2_reconstructions()
        ends = self._train_windows.end_indices
        losses = []
        for batch in self._train_windows.batches(config.batch_size, shuffle=True, rng=self._rng):
            target = model._target(batch.long, batch.short)
            if reconstructions is not None:
                reconstruction = reconstructions[np.searchsorted(ends, batch.end_indices)]
            else:
                reconstruction = np.zeros_like(target)
            errors = target - reconstruction
            noise_prediction = model.noise_forward(errors, target)
            # loss_2 = || Y - Y_hat_1 - Y_hat_2 ||  (Eq. 16), with M1 frozen.
            loss = mse_loss(noise_prediction, Tensor(errors))
            self._optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(model.noise.parameters(), config.grad_clip)
            self._optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    def _stage2_reconstructions(self) -> np.ndarray | None:
        """The frozen temporal module's reconstruction of every training
        window, in window order, computed once per stage 2.

        A window's reconstruction does not depend on its batch-mates (the
        GEMMs run per slice, norms and softmax per row), so gathering the
        rows of a shuffled batch from this cache reproduces the per-batch
        forward bit for bit.  It runs lazily on the first stage-2 epoch —
        after stage 1's best-weight restore, or after a resume — in eval
        mode, so a temporal module with dropout yields deterministic
        targets, as a frozen stage-1 model implies.  ``None`` when the
        variant has no temporal module.
        """
        model = self.model
        if model.temporal is None:
            return None
        if self._stage2_cache is None:
            model.temporal.eval()
            try:
                with no_grad():
                    self._stage2_cache = np.concatenate([
                        model.temporal_forward(
                            batch.long, batch.short, batch.long_times, batch.short_times
                        ).data
                        for batch in self._train_windows.batches(
                            self.config.batch_size, shuffle=False
                        )
                    ])
            finally:
                model.temporal.train()
        return self._stage2_cache

    def _validation_loss(self, stage: int) -> float:
        """Holdout loss of the current stage (exact mean over all elements)."""
        model, config = self.model, self.config
        # Validation must not perturb training: run in eval mode and shield
        # the dynamic-graph smoothing state from the holdout forwards.
        dynamic = model.noise is not None and model.noise.graph_mode == "dynamic"
        saved_state = model.noise._dynamic_state if dynamic else None
        model.eval()
        total, count = 0.0, 0
        try:
            with no_grad():
                if stage == 1:
                    for batch in self._val_windows.batches(config.batch_size, shuffle=False):
                        target = model._target(batch.long, batch.short)
                        prediction = model.temporal_forward(
                            batch.long, batch.short, batch.long_times, batch.short_times
                        ).data
                        diff = prediction - target
                        total += float((diff * diff).sum())
                        count += diff.size
                else:
                    for target, errors in self._stage2_val_inputs():
                        noise_prediction = model.noise_forward(errors, target).data
                        diff = noise_prediction - errors
                        total += float((diff * diff).sum())
                        count += diff.size
        finally:
            model.train()
            if dynamic:
                model.noise._dynamic_state = saved_state
        return total / count if count else 0.0

    def _stage2_val_inputs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-batch ``(target, errors)`` of the holdout, computed once.

        Stage 2 trains only the noise module while the temporal module stays
        frozen, so the holdout targets and stage-1 errors are identical every
        epoch; recomputing the transformer forward per validation pass would
        redo the most expensive part of validation for no change.  Must only
        be called in eval mode inside ``no_grad`` (see ``_validation_loss``).
        """
        if self._val_stage2_cache is None:
            model, config = self.model, self.config
            cache = []
            for batch in self._val_windows.batches(config.batch_size, shuffle=False):
                target = model._target(batch.long, batch.short)
                if model.temporal is not None:
                    reconstruction = model.temporal_forward(
                        batch.long, batch.short, batch.long_times, batch.short_times
                    ).data
                else:
                    reconstruction = np.zeros_like(target)
                cache.append((target, target - reconstruction))
            self._val_stage2_cache = cache
        return self._val_stage2_cache

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str | Path | None = None) -> Path:
        """Serialize the full training state into one ``.npz`` artifact.

        The checkpoint captures everything a bit-identical resume needs:
        model weights and non-parameter buffers (the dynamic-graph smoothing
        state), the active optimizer's moments, the early-stopping state
        including the best-weight snapshot, the RNG bit state that drives
        batch shuffling, the loss history and the loop position.
        """
        path = Path(path) if path is not None else self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path given (and the session has none configured)")
        from dataclasses import asdict

        meta = {
            "format": self.CHECKPOINT_FORMAT,
            "version": self.CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "validation_split": self.validation_split,
            "cursor": self._cursor,
            "epoch": self._epoch,
            "stop": self._stop,
            "done": self._done,
            "rng": self._rng.bit_generator.state,
            "best_epochs": [self.history.stage1_best_epoch, self.history.stage2_best_epoch],
            "data": self.data_fingerprint,
        }
        arrays: dict[str, np.ndarray] = {
            "meta": np.array(json.dumps(meta)),
            "history.stage1": np.asarray(self.history.stage1_losses, dtype=np.float64),
            "history.stage2": np.asarray(self.history.stage2_losses, dtype=np.float64),
            "history.stage1_val": np.asarray(self.history.stage1_val_losses, dtype=np.float64),
            "history.stage2_val": np.asarray(self.history.stage2_val_losses, dtype=np.float64),
        }
        for name, value in self.model.state_dict().items():
            arrays[f"model.{name}"] = value
        if self.model.noise is not None and self.model.noise._dynamic_state is not None:
            arrays["buffers.noise.dynamic_state"] = self.model.noise._dynamic_state.copy()
        if self._optimizer is not None:
            for name, value in self._optimizer.state_dict().items():
                arrays[f"optimizer.{name}"] = value
        if self._stopper is not None:
            for name, value in self._stopper.state_dict().items():
                arrays[f"stopper.{name}"] = value
        return save_arrays(path, arrays)

    def load_checkpoint(self, path: str | Path) -> None:
        """Restore the state saved by :meth:`save_checkpoint`.

        The session must have been built over the same configuration and
        model architecture; mismatches raise :class:`ValueError` /
        :class:`KeyError` naming the checkpoint path.
        """
        from dataclasses import asdict

        path = Path(path)
        arrays = load_arrays(path)
        if "meta" not in arrays:
            raise ValueError(f"{path} is not a {self.CHECKPOINT_FORMAT} checkpoint (no metadata)")
        try:
            meta = json.loads(str(arrays["meta"]))
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} holds corrupt checkpoint metadata: {error}") from error
        if meta.get("format") != self.CHECKPOINT_FORMAT:
            raise ValueError(
                f"{path} is a {meta.get('format')!r} checkpoint, "
                f"expected {self.CHECKPOINT_FORMAT!r}"
            )
        if meta.get("version", 0) > self.CHECKPOINT_VERSION:
            raise ValueError(
                f"{path} was written by a newer checkpoint format "
                f"(version {meta['version']} > {self.CHECKPOINT_VERSION})"
            )
        if meta.get("config") != asdict(self.config):
            raise ValueError(
                f"checkpoint {path} was written with a different configuration; "
                "resume requires identical hyperparameters"
            )
        if float(meta.get("validation_split", 0.0)) != self.validation_split:
            raise ValueError(
                f"checkpoint {path} used validation_split="
                f"{meta.get('validation_split')}, session has {self.validation_split}"
            )
        if meta.get("data", self.data_fingerprint) != self.data_fingerprint:
            raise ValueError(
                f"checkpoint {path} was written for different training data "
                f"(stored {meta['data']['shape']}, session has "
                f"{self.data_fingerprint['shape']}); resuming would silently "
                "continue (or skip) training on the wrong series — train a "
                "fresh session, or warm-start from a detector artifact instead"
            )

        state = {
            name[len("model."):]: value
            for name, value in arrays.items()
            if name.startswith("model.")
        }
        try:
            self.model.load_state_dict(state)
        except (KeyError, ValueError) as error:
            raise type(error)(
                f"checkpoint {path} does not match the model architecture: {error}"
            ) from error

        self._cursor = int(meta["cursor"])
        self._epoch = int(meta["epoch"])
        self._stop = bool(meta["stop"])
        self._done = bool(meta["done"])
        # Seed is irrelevant (the generator state is overwritten from the
        # checkpoint on the next line) but an unseeded default_rng() would
        # still draw OS entropy for nothing.
        rng = np.random.default_rng(0)
        rng.bit_generator.state = meta["rng"]
        self._rng = rng

        self.history = TrainingHistory(
            stage1_losses=arrays["history.stage1"].tolist(),
            stage2_losses=arrays["history.stage2"].tolist(),
            stage1_val_losses=arrays["history.stage1_val"].tolist(),
            stage2_val_losses=arrays["history.stage2_val"].tolist(),
            stage1_best_epoch=int(meta["best_epochs"][0]),
            stage2_best_epoch=int(meta["best_epochs"][1]),
        )

        self._optimizer = None
        self._stopper = None
        self._stage2_cache = self._val_stage2_cache = None
        if not self._done and self._cursor < len(self._stages):
            optimizer_state = {
                name[len("optimizer."):]: value
                for name, value in arrays.items()
                if name.startswith("optimizer.")
            }
            stopper_state = {
                name[len("stopper."):]: value
                for name, value in arrays.items()
                if name.startswith("stopper.")
            }
            if optimizer_state or stopper_state:
                self._begin_stage(self._stages[self._cursor])
                try:
                    if optimizer_state:
                        self._optimizer.load_state_dict(optimizer_state)
                    if stopper_state:
                        self._stopper.load_state_dict(stopper_state)
                except (KeyError, ValueError) as error:
                    raise type(error)(
                        f"checkpoint {path} holds incompatible optimizer/stopper state: {error}"
                    ) from error
        # Restore non-parameter buffers last: _begin_stage resets the
        # dynamic-graph smoothing state, and resume must keep the
        # checkpointed one to stay bit-identical.
        if self.model.noise is not None:
            buffered = arrays.get("buffers.noise.dynamic_state")
            self.model.noise._dynamic_state = None if buffered is None else buffered.copy()
        if self._done:
            self.model.eval()
        else:
            self.model.train()
        self._log(
            f"[session] resumed from {path}: stage {self.stage}, "
            f"{self._epoch} epoch(s) completed"
        )

    @classmethod
    def restore(
        cls,
        path: str | Path,
        model: "AeroModel",
        window_dataset: "WindowDataset",
        *,
        checkpoint_every: int = 1,
        verbose: bool = False,
    ) -> "TrainingSession":
        """Rebuild a session from a checkpoint written by :meth:`save_checkpoint`.

        The configuration (including the validation split) is read back from
        the checkpoint; ``model`` and ``window_dataset`` must match the ones
        the original session was built over.
        """
        path = Path(path)
        arrays = load_arrays(path)
        if "meta" not in arrays:
            raise ValueError(f"{path} is not a {cls.CHECKPOINT_FORMAT} checkpoint (no metadata)")
        meta = json.loads(str(arrays["meta"]))
        from ..core.config import AeroConfig

        config = AeroConfig(**meta["config"])
        session = cls(
            model,
            window_dataset,
            config,
            validation_split=float(meta.get("validation_split", 0.0)),
            checkpoint_path=path,
            checkpoint_every=checkpoint_every,
            verbose=verbose,
        )
        session.load_checkpoint(path)
        return session
