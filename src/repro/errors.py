"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch one base class.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError, ValueError):
    """An input object (instance, DAG, schedule, ...) failed validation."""


class CycleError(ValidationError):
    """A precedence graph contains a directed cycle."""


@contextmanager
def payload_errors(what: str) -> Iterator[None]:
    """Raise a ``from_dict`` decoder's lookup or conversion error on a
    malformed ``what`` payload as one :class:`ValidationError`; a
    :class:`ReproError` from the constructor passes unchanged."""
    try:
        yield
    except ReproError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {what} payload: {type(exc).__name__}: {exc}") from None


class ScheduleError(ReproError):
    """A schedule is malformed or incompatible with an instance."""


class LPError(ReproError):
    """The LP solver failed or returned a non-optimal status."""


class InfeasibleError(LPError):
    """A linear program that should be feasible was reported infeasible."""


class RoundingError(ReproError):
    """LP rounding failed to produce a certified integral solution."""


class ExactSolverLimitError(ReproError):
    """An exact (exponential-time) solver was asked to exceed its size guard."""


class UnsupportedDagError(ReproError):
    """The precedence DAG class is not covered by the requested algorithm."""


class SimulationLimitError(ReproError):
    """A simulation exceeded its step budget without completing."""


class ExperimentError(ReproError):
    """An experiment spec is malformed or references an unknown registry key."""


class StaleCacheWarning(UserWarning):
    """A cache entry was written under another entry schema.

    Emitted by :func:`repro.store.read` — for every cache: experiment
    results, in-flight task outcomes and served reports — when it discards
    a version-mismatched entry, so silent reuse of stale numbers is
    impossible but a cache upgrade does not brick existing sweeps; the
    caller recomputes.
    """


class CensoredEstimateWarning(UserWarning):
    """A Monte Carlo estimate includes replications censored at the step budget.

    The reported mean is then only a lower bound on the true expectation.
    Emitted (via :func:`warn_censored`, so every route words it
    identically) by the evaluation front door, once per call, and by the
    experiment runner, once per spec; the engines below them only count
    censored replications.  Silence it only after deciding the bias is
    acceptable for the use at hand.
    """


class ServeError(ReproError):
    """The evaluation server rejected or failed a request."""


class AdmissionError(ServeError):
    """The server shed a request (queue full / in-flight state-cost guard).

    Carries ``retry_after_s`` so the HTTP layer can answer with a
    429-style response and a ``Retry-After`` header instead of queueing
    unboundedly.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


def censored_message(truncated: int, reps: int, max_steps: int) -> str:
    """The one canonical censoring-warning wording.

    Shared by :func:`warn_censored` and the evaluation server's response
    envelope (which reports censoring as data on the wire), so "identical
    wording for every route" is a property of this function rather than
    of hand-synced string literals.
    """
    return (
        f"{truncated}/{reps} replications were censored at the "
        f"{max_steps}-step budget; the reported mean is a lower bound "
        "on the true expected makespan — enlarge max_steps or pass "
        "require_finished=True"
    )


def warn_censored(truncated: int, reps: int, max_steps: int, stacklevel: int) -> None:
    """Emit the one canonical censoring warning.

    Called by :func:`repro.evaluate.evaluate` and the experiment runner
    only, so "exactly one warning, identical wording, for every route" is
    a property of this function rather than of hand-synced literals.
    """
    import warnings

    warnings.warn(
        CensoredEstimateWarning(censored_message(truncated, reps, max_steps)),
        stacklevel=stacklevel + 1,
    )
