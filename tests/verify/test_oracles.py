"""Tests for repro.verify.oracles — the checks pass on healthy code and
catch deliberately broken engines/oracles (the harness's own regression
suite: a verifier that cannot detect a planted bug verifies nothing)."""

from __future__ import annotations

import numpy as np

import repro.sim.montecarlo as montecarlo
import repro.verify.oracles as oracles
from repro.verify import CaseSpec, CheckConfig, check_case
from repro.verify.oracles import applicable_checks

FAST = CheckConfig(reps=120)


def spec_for(schedule="serial", family="independent/uniform", n=3, m=2, **kw):
    return CaseSpec(
        family=family,
        schedule=schedule,
        n=n,
        m=m,
        instance_seed=kw.pop("instance_seed", 10),
        sim_seed=kw.pop("sim_seed", 20),
        **kw,
    )


class TestHealthyCode:
    def test_oracle_names(self):
        assert applicable_checks() == (
            "engines",
            "markov",
            "curve",
            "opt",
            "msm",
            "rounding",
            "lpflow",
            "delays",
            "portfolio",
        )

    def test_oblivious_case_passes(self):
        assert check_case(spec_for("round_robin"), cfg=FAST) == []

    def test_adaptive_case_passes(self):
        assert check_case(spec_for("greedy", family="chains/uniform"), cfg=FAST) == []

    def test_regimen_case_passes(self):
        assert check_case(spec_for("exact_regimen", n=2), cfg=FAST) == []

    def test_randomized_policy_case_passes(self):
        assert check_case(spec_for("random_policy"), cfg=FAST) == []

    def test_tight_budget_case_passes(self):
        assert check_case(spec_for("serial", max_steps=6), cfg=FAST) == []

    def test_only_restricts_to_one_check(self):
        # `only` is the shrinker's re-test hook; an unknown name runs nothing.
        assert check_case(spec_for("serial"), cfg=FAST, only="nonexistent") == []

    def test_unknown_family_reports_build_discrepancy(self):
        out = check_case(spec_for(family="moebius/uniform"), cfg=FAST)
        assert [d.check for d in out] == ["build"]


class TestPlantedBugs:
    def test_broken_batched_engine_is_caught(self, monkeypatch):
        """An off-by-one in the batched engine must trip the engines oracle."""
        real = montecarlo.simulate_batch

        def off_by_one(instance, schedule, reps, rng=None, max_steps=0, **kw):
            batch = real(instance, schedule, reps, rng=rng, max_steps=max_steps, **kw)
            batch.makespans += 1
            return batch

        monkeypatch.setattr(montecarlo, "simulate_batch", off_by_one)
        out = check_case(spec_for("greedy"), cfg=FAST)
        assert any(d.check == "engines" and "batched" in d.message for d in out)

    def test_broken_markov_oracle_is_caught(self, monkeypatch):
        """A biased exact solver must trip the markov oracle (both stages).

        The oracles consume the exact value through the evaluate() front
        door, so the bug is planted in the engine layer underneath it.
        """
        import repro.sim.markov as markov

        real = markov._expected_makespan_regimen
        monkeypatch.setattr(
            markov,
            "_expected_makespan_regimen",
            lambda inst, reg, **kw: real(inst, reg, **kw) + 0.75,
        )
        out = check_case(spec_for("exact_regimen", n=2), cfg=FAST)
        assert any(d.check in ("markov", "opt") for d in out)

    def test_broken_curve_is_caught(self, monkeypatch):
        """A curve that is not the samples' CDF must trip the curve oracle."""
        from repro.evaluate import facade

        real = facade._mc_curve

        def shifted(samples, truncated, horizon):
            return np.roll(real(samples, truncated, horizon), 1)  # off-by-one

        monkeypatch.setattr(facade, "_mc_curve", shifted)
        out = check_case(spec_for("serial"), cfg=FAST)
        assert any(d.check == "curve" for d in out)

    def test_broken_lower_bound_is_caught(self, monkeypatch):
        """A lower bound exceeding T^OPT must trip the opt oracle."""
        real = oracles.lower_bounds

        def inflated(instance, **kw):
            bounds = real(instance, **kw)
            bounds.single_job *= 10.0
            return bounds

        monkeypatch.setattr(oracles, "lower_bounds", inflated)
        out = check_case(spec_for("exact_regimen", n=2), cfg=FAST)
        assert any(d.check == "opt" and "lower bound" in d.message for d in out)

    def test_broken_malewicz_dp_is_caught(self, monkeypatch):
        """A DP off by 1e-6 must trip the opt oracle's golden comparison."""
        real = oracles.optimal_regimen

        def off(instance, **kw):
            sol = real(instance, **kw)
            sol.expected_makespan += 1e-6
            return sol

        monkeypatch.setattr(oracles, "optimal_regimen", off)
        out = check_case(spec_for("serial"), cfg=FAST, only="opt")
        assert any(d.check == "opt" and "golden" in d.message for d in out)

    def test_broken_vector_lp_engine_is_caught(self, monkeypatch):
        """An inflated vector-engine optimum must trip the lpflow oracle."""
        real = oracles.solve_lp2

        def biased(instance, *args, engine="vector", **kw):
            frac = real(instance, *args, engine=engine, **kw)
            if engine == "vector":
                frac.t += 0.125
            return frac

        monkeypatch.setattr(oracles, "solve_lp2", biased)
        out = check_case(spec_for("serial"), cfg=FAST, only="lpflow")
        assert any(d.check == "lpflow" and "(LP2)" in d.message for d in out)

    def test_broken_array_flow_engine_is_caught(self, monkeypatch):
        """An array engine that undershoots max-flow must trip lpflow."""
        from repro.flow.arrays import ArrayFlowNetwork

        real = ArrayFlowNetwork.max_flow

        def lossy(self, s, t):
            return max(0, real(self, s, t) - 1)

        monkeypatch.setattr(ArrayFlowNetwork, "max_flow", lossy)
        out = check_case(spec_for("serial"), cfg=FAST, only="lpflow")
        assert any(d.check == "lpflow" and "flow" in d.message for d in out)

class TestDegenerateVarianceGuard:
    """The false-positive class the first fuzz campaigns hit: all 240
    samples identical (sample std-err 0) while the exact mean sits a
    hair above the integer — a perfectly likely outcome, not a bug."""

    class _Est:
        truncated = 0

        def __init__(self, mean, std_err):
            self.mean, self.std_err = mean, std_err

    def test_near_deterministic_sample_is_not_flagged(self):
        est = self._Est(mean=1.0, std_err=0.0)
        # exact 1.001 → q ≈ 0.999: an all-ones sample of 240 is ~79% likely.
        assert oracles._markov_deviates(est, 1.001, reps=240, z=5.0) is None

    def test_genuine_deviation_is_flagged(self):
        est = self._Est(mean=1.0, std_err=0.0)
        assert oracles._markov_deviates(est, 1.5, reps=240, z=5.0) is not None

    def test_censored_estimates_are_never_compared(self):
        est = self._Est(mean=1.0, std_err=0.0)
        est.truncated = 3
        assert oracles._markov_deviates(est, 9.9, reps=240, z=5.0) is None
