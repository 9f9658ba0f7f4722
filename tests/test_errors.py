"""The error contract: every deliberate error derives from ReproError."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SUUInstance
from repro.algorithms import msm_e_alg, suu_i_adaptive
from repro.errors import ReproError
from repro.sim import simulate_batch


def test_size_arguments_raise_repro_errors():
    inst = SUUInstance(np.full((2, 3), 0.5))
    with pytest.raises(ReproError, match="reps"):
        simulate_batch(inst, suu_i_adaptive(inst).schedule, reps=0, rng=0)
    with pytest.raises(ReproError, match="length t"):
        msm_e_alg(inst.p, t=0)
