"""Cross-route equivalence through the front door.

A joint makespan + curve request samples exactly what a makespan-only
request samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance
from repro.algorithms.baselines import serial_baseline
from repro.evaluate import evaluate


@pytest.fixture
def inst():
    rng = np.random.default_rng(11)
    return SUUInstance(rng.uniform(0.25, 0.9, size=(3, 5)), name="equiv")


class TestJointMetrics:
    def test_curve_request_does_not_clamp_the_makespan_budget(self, inst):
        """Regression: makespan + completion_curve runs at max_steps, not
        horizon — the curve is the CDF prefix, the makespan is unclamped."""
        sched = serial_baseline(inst).schedule
        joint = evaluate(
            inst,
            sched,
            mode="mc",
            metrics=("makespan", "completion_curve"),
            reps=60,
            seed=13,
            horizon=3,
            max_steps=5000,
            keep_samples=True,
        )
        plain = evaluate(
            inst, sched, mode="mc", reps=60, seed=13, max_steps=5000, keep_samples=True
        )
        np.testing.assert_array_equal(joint.samples, plain.samples)
        assert joint.makespan == plain.makespan
        assert joint.truncated == 0
        assert joint.completion_curve.shape == (3,)
        for t in (1, 2, 3):
            assert joint.completion_curve[t - 1] == float(
                (joint.samples <= t).mean()
            )

