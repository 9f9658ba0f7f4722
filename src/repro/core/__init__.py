"""Core data model: precedence DAGs, instances, schedules, and mass."""

from .dag import DagClass, PrecedenceDAG
from .instance import SUUInstance
from .mass import (
    assignment_mass,
    assignment_success_prob,
    cumulative_mass,
    mass_lower_bound,
    mass_profile,
    mass_upper_bound,
    prop21_holds,
    success_prob_product,
)
from .schedule import (
    IDLE,
    AdaptivePolicy,
    CyclicSchedule,
    ObliviousSchedule,
    PseudoSchedule,
    Regimen,
    ScheduleResult,
    schedule_from_dict,
    validate_assignment,
)

__all__ = [
    "DagClass",
    "PrecedenceDAG",
    "SUUInstance",
    "IDLE",
    "AdaptivePolicy",
    "CyclicSchedule",
    "ObliviousSchedule",
    "PseudoSchedule",
    "Regimen",
    "ScheduleResult",
    "schedule_from_dict",
    "validate_assignment",
    "assignment_mass",
    "assignment_success_prob",
    "cumulative_mass",
    "mass_lower_bound",
    "mass_profile",
    "mass_upper_bound",
    "prop21_holds",
    "success_prob_product",
]
