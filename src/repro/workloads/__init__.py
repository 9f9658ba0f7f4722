"""Synthetic workloads: DAG/probability generators and paper scenarios."""

from .generators import (
    DAG_KINDS,
    PROB_MODELS,
    chains_dag,
    diamond_dag,
    greedy_trap,
    in_tree_dag,
    layered_dag,
    mixed_forest_dag,
    out_tree_dag,
    probability_matrix,
    random_instance,
)
from .scenarios import grid_computing, project_management

__all__ = [
    "DAG_KINDS",
    "PROB_MODELS",
    "chains_dag",
    "diamond_dag",
    "greedy_trap",
    "in_tree_dag",
    "layered_dag",
    "mixed_forest_dag",
    "out_tree_dag",
    "probability_matrix",
    "random_instance",
    "grid_computing",
    "project_management",
]
