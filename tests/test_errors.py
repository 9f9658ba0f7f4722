"""The error contract: every deliberate error derives from ReproError."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance
from repro.algorithms import PRACTICAL, msm_e_alg, solve, suu_i_adaptive
from repro.errors import ReproError, ValidationError
from repro.sim import simulate_batch
from repro.workloads import random_instance


def test_size_arguments_raise_repro_errors():
    inst = SUUInstance(np.full((2, 3), 0.5))
    with pytest.raises(ReproError, match="reps"):
        simulate_batch(inst, suu_i_adaptive(inst).schedule, reps=0, rng=0)
    with pytest.raises(ReproError, match="length t"):
        msm_e_alg(inst.p, t=0)


def test_solve_arguments_raise_repro_errors():
    inst = random_instance(8, 3, "chains", rng=1)
    with pytest.raises(ValidationError, match="low_scale must be >= 2"):
        solve(inst, constants=PRACTICAL.with_(rounding_low_scale=1), method="chains")
    with pytest.raises(ValidationError, match="unknown method 'bogus'"):
        solve(inst, method="bogus")
