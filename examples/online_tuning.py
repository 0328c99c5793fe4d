"""Online tuning demo: drift-driven re-tuning under live traffic.

Runs the serving gateway with online tuning enabled and walks the full
loop end to end:

1. steady AXPY traffic forms a latency baseline for the workload;
2. a latency regression is induced (here: synthetic inflated samples
   fed to the drift monitor — in production this is what a device
   losing boost clocks or a noisy neighbour looks like);
3. the ``DriftMonitor`` trips, a *background* re-tune measures a fresh
   work division off the hot path, and publishing it bumps the tuning
   generation — the next AUTO launch silently picks it up;
4. requests keep flowing the whole time and every single result is
   verified bit-identical against numpy: a hot-swap may change *how*
   a kernel is scheduled, never *what* it computes.

Run:  python examples/online_tuning.py
"""

import dataclasses
import os
import tempfile

import numpy as np

N = 256
BASELINE_REQUESTS = 12
DRIFTING_REQUESTS = 16


def run(tmpdir: str) -> None:
    # Keep the demo's measurements out of any real tuning cache.
    os.environ["REPRO_TUNING_CACHE"] = os.path.join(tmpdir, "cache.json")
    os.environ["REPRO_TUNING_HOF"] = os.path.join(tmpdir, "hof.json")

    from repro.serve import Gateway, ServeConfig
    from repro.serve.online import OnlineTuner
    from repro.tuning import reset_default_cache
    from repro.tuning.cache import tuning_generation
    from repro.tuning.fleet.config import FleetConfig

    reset_default_cache()
    rng = np.random.default_rng(42)

    def drive(gw, count):
        """Launch AXPY requests and verify every result exactly."""
        x = rng.standard_normal(N)
        y = rng.standard_normal(N)
        for _ in range(count):
            handle = gw.launch(
                "axpy", params={"alpha": 2.0}, arrays={"x": x, "y": y}
            )
            result = handle.result(timeout=30)
            assert np.array_equal(result.arrays["y"], 2.0 * x + y)

    with Gateway(ServeConfig(online_tuning=True)) as gw:
        # A twitchy monitor so the demo converges in seconds; the
        # defaults (window 64, threshold 1.5x, cooldown 30 s) are what
        # a long-running deployment would use.  The baseline forms under
        # a threshold nothing can reach: with a window of 8 and an EWMA
        # this quick, one slow request on a busy host would otherwise
        # trip a re-tune, which clears the baseline the demo reads next.
        twitchy = FleetConfig(
            drift_window=8,
            drift_threshold=1.5,
            drift_ewma_alpha=0.9,
            drift_cooldown=0.0,
            drift_budget=3,
        )
        tuner = OnlineTuner(dataclasses.replace(twitchy, drift_threshold=1e12))
        gw.online.close()
        gw.online = tuner

        print(f"1. baseline: {BASELINE_REQUESTS} AXPY requests ...")
        drive(gw, BASELINE_REQUESTS)
        snap = tuner.monitor.snapshot()["axpy"]
        base = snap["baseline_median"]
        assert base is not None, "baseline window never filled"
        tuner.monitor.config = twitchy
        print(f"   baseline median service latency: {base * 1e6:.1f} us")

        gen_before = tuning_generation()
        print(f"2. inducing a 5x latency regression "
              f"(tuning generation {gen_before}) ...")
        for _ in range(DRIFTING_REQUESTS):
            tuner.monitor.observe("axpy", base * 5.0)
            drive(gw, 1)  # traffic races the background re-tune

        assert tuner.wait_idle(timeout=60.0), "re-tune never finished"
        stats = tuner.stats()
        gen_after = tuning_generation()
        assert stats["retunes"] >= 1, "drift never tripped"
        assert gen_after > gen_before, "re-tune never published"
        print(f"3. drift detected -> background re-tune ran "
              f"({stats['retunes']} re-tune(s)), tuning generation "
              f"{gen_before} -> {gen_after}")

        print("4. post-swap traffic ...")
        drive(gw, 4)
        print(f"   {BASELINE_REQUESTS + DRIFTING_REQUESTS + 4} requests "
              f"served across the swap, all bit-identical to numpy")
        gw.shutdown(release_pools=False)

    reset_default_cache()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmpdir:
        run(tmpdir)
