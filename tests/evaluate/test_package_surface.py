"""The package surface of the evaluation front door."""

from __future__ import annotations

import importlib

import pytest


def test_evaluate_is_both_callable_and_module():
    """``repro.evaluate`` is the function, yet ``repro.evaluate.evaluate``
    and a plain ``import repro.evaluate`` must work too, even though the
    function shadows the subpackage attribute."""
    import repro
    import repro.evaluate as evaluate_module

    assert callable(repro.evaluate)
    assert repro.evaluate.evaluate is repro.evaluate
    assert repro.evaluate.EvaluationRequest is repro.EvaluationRequest
    assert repro.evaluate.EvaluationReport is repro.EvaluationReport
    # the module itself stays importable and fully populated
    assert evaluate_module.EvaluationRequest is repro.EvaluationRequest


@pytest.mark.parametrize(
    "module", ["repro", "repro.sim", "repro.sim.exact", "repro.sim.montecarlo"]
)
def test_evaluate_is_the_only_estimator_entry_point(module):
    mod = importlib.import_module(module)
    for name in (
        "estimate_makespan",
        "completion_curve",
        "expected_makespan_regimen",
        "expected_makespan_cyclic",
        "state_distribution",
        "exact_completion_curve",
    ):
        assert not hasattr(mod, name), f"{module}.{name}"
