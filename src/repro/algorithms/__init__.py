"""The paper's algorithms: MSM greedy, SUU-I, chains, trees, forests.

Every solver is registered in the capability-typed registry
(:mod:`repro.algorithms.registry`); external code dispatches through
:func:`solve`, :func:`resolve_solver` / :func:`iter_solvers`, or the
:func:`run_portfolio` meta-runner rather than importing concrete solver
functions (the ``solver-callsite`` lint rule enforces this for
first-party code).
"""

from .baselines import (
    exact_baseline,
    greedy_prob_policy,
    msm_eligible_policy,
    random_policy,
    round_robin_baseline,
    serial_baseline,
    state_round_robin_regimen,
)
from .chains import build_chain_bands, solve_chains
from .constants import LEAN, PAPER, PRACTICAL, PRESETS, SUUConstants, resolve_constants
from .independent import suu_i_adaptive, suu_i_lp, suu_i_oblivious
from .layered import depth_layers, solve_layered
from .msm import MSMExtendedResult, msm_alg, msm_e_alg, msm_mass_of_assignment
from .online_greedy import greedy_assignment, online_greedy
from .pipeline import solve
from .portfolio import PortfolioEntry, PortfolioReport, run_portfolio
from .registry import (
    SOLVERS,
    Solver,
    describe_solvers,
    iter_solvers,
    register_solver,
    resolve_solver,
    solver_names,
)
from .replication import replicate_with_tail, serial_tail
from .trees import solve_forest, solve_tree

__all__ = [
    "LEAN",
    "PAPER",
    "PRACTICAL",
    "PRESETS",
    "SUUConstants",
    "resolve_constants",
    "MSMExtendedResult",
    "msm_alg",
    "msm_e_alg",
    "msm_mass_of_assignment",
    "suu_i_adaptive",
    "suu_i_lp",
    "suu_i_oblivious",
    "depth_layers",
    "solve_layered",
    "build_chain_bands",
    "solve_chains",
    "solve_forest",
    "solve_tree",
    "solve",
    "Solver",
    "SOLVERS",
    "register_solver",
    "resolve_solver",
    "iter_solvers",
    "solver_names",
    "describe_solvers",
    "PortfolioEntry",
    "PortfolioReport",
    "run_portfolio",
    "online_greedy",
    "greedy_assignment",
    "replicate_with_tail",
    "serial_tail",
    "exact_baseline",
    "state_round_robin_regimen",
    "greedy_prob_policy",
    "random_policy",
    "msm_eligible_policy",
    "round_robin_baseline",
    "serial_baseline",
]
