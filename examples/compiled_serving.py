"""Train once, checkpoint, and serve a fleet on the compiled runtime.

The full production loop of the compiled inference runtime
(:mod:`repro.runtime`):

1. train AERO offline on the unlabeled archive (Algorithm 1);
2. ``save()`` the fitted detector — config, weights, scaler statistics and
   POT calibration in one ``.npz`` artifact;
3. ``load()`` it back (as a serving process with no training history
   would) and ``compile()`` it into tape-free fused forward plans;
4. verify the compiled scores are bit-for-bit equal to the autograd path,
   and time both on single-window serving;
5. serve a fleet of camera-field shards through a
   :class:`repro.streaming.FleetManager` on the compiled backend — every
   exposure tick is one fused ``score_stack`` call (one plan call per
   cache-sized shard block).

Run with:  PYTHONPATH=src python examples/compiled_serving.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import AeroConfig, AeroDetector
from repro.data import load_astroset
from repro.streaming import AlertPolicy, FleetManager


def main() -> None:
    dataset = load_astroset("AstrosetLow", scale=0.05)
    print(f"{dataset.name}: {dataset.num_variates} stars/field, "
          f"{dataset.train_length} archive epochs, {dataset.test_length} live epochs")

    # --- 1. offline training ----------------------------------------------
    config = AeroConfig.fast(window=40, short_window=12).scaled(
        max_epochs_stage1=12, max_epochs_stage2=6, learning_rate=5e-3
    )
    detector = AeroDetector(config)
    detector.fit(dataset.train, dataset.train_timestamps)
    print(f"calibrated POT threshold: {detector.threshold():.4f}")

    # --- 2./3. checkpoint to disk, reload, compile ------------------------
    with tempfile.TemporaryDirectory() as workdir:
        checkpoint = detector.save(Path(workdir) / "aero.npz")
        print(f"checkpoint: {checkpoint.stat().st_size / 1024:.0f} KiB on disk")
        served = AeroDetector.load(checkpoint)
    compiled = served.compile()            # float64: bit-equal plans
    compiled32 = served.compile(dtype="float32")

    # --- 4. parity and single-window serving cost -------------------------
    batch_scores = served.score(dataset.test)
    assert np.array_equal(batch_scores, compiled.score(dataset.test))
    print("compiled scores match the autograd path bit for bit "
          f"({batch_scores.shape[0]} timestamps x {batch_scores.shape[1]} stars)")

    window, short = served.config.window, served.config.short_window
    scaled = served.scaler.transform(dataset.test)
    long = scaled[:window].T[None]
    args = (long, long[:, :, window - short:])

    def per_call_ms(fn, reps=100):
        fn(*args)
        started = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        return 1e3 * (time.perf_counter() - started) / reps

    autograd_ms = per_call_ms(lambda *a: served.score_windows(*a, backend="autograd"))
    compiled_ms = per_call_ms(compiled.score_windows)
    print(f"single-window serving: autograd {autograd_ms:.2f} ms -> "
          f"compiled {compiled_ms:.2f} ms ({autograd_ms / compiled_ms:.1f}x)")

    # --- 5. fleet serving on the fused multi-star path --------------------
    num_shards = 8
    fleet = FleetManager(
        served,
        num_shards=num_shards,
        alert_policy=AlertPolicy(min_consecutive=2, cooldown=30),
        backend=compiled32,                # float32 plans for the hot loop
    )
    print(f"serving {fleet.num_stars} stars across {num_shards} shards "
          f"on the {fleet.backend} backend ({compiled32.dtype} plans)")

    rng = np.random.default_rng(42)
    jitter = rng.normal(0.0, 0.02, size=(num_shards, dataset.num_variates))
    alerts = []
    started = time.perf_counter()
    for t in range(dataset.test_length):
        result = fleet.step(dataset.test[t][None, :] + jitter,
                            timestamp=float(dataset.test_timestamps[t]))
        alerts.extend(result.alerts)
    elapsed = time.perf_counter() - started
    print(f"replayed {dataset.test_length} exposures in {elapsed:.2f} s "
          f"({fleet.num_stars * dataset.test_length / elapsed:,.0f} star-scores/sec)")

    for alert in alerts[:5]:
        truth = "TRUE EVENT" if dataset.test_labels[alert.step, alert.variate] else "noise/false alarm"
        print(f"t={alert.step:5d}  shard {alert.shard}  star {alert.variate:3d}  "
              f"score={alert.score:.3f}  -> {truth}")
    if len(alerts) > 5:
        print(f"... and {len(alerts) - 5} more alerts")


if __name__ == "__main__":
    main()
