"""Content-addressed job identity for the evaluation server.

A served evaluation is identified by *what is being computed*, never by
who asked or when: the job key digests the instance (minus its
cosmetic ``name``), the schedule content (table bytes, or the solver
name for registry sugar), and the request's own
:meth:`~repro.evaluate.request.EvaluationRequest.request_hash`.  Two
clients POSTing the same triple — under any instance rename — coalesce
to one computation in flight and one cache entry at rest.

Every digest here is :func:`repro.store.digest`.  Only the request hash
inside the job key is salted (:func:`repro.store.result_key`), so the
instance and schedule digests are plain content digests.

Only reproducible work is addressable: requests whose seed is a live
generator (or ``None``) produce a fresh stream per run, so they get a
unique per-submission key and bypass dedup/caching entirely (see
:meth:`EvaluationServer.submit`).
"""

from __future__ import annotations

from ..core.instance import SUUInstance
from ..core.schedule import CyclicSchedule, ObliviousSchedule
from ..errors import ValidationError
from ..evaluate.request import EvaluationRequest
from ..store import digest

__all__ = ["instance_hash", "schedule_hash", "job_key"]


def instance_hash(instance: SUUInstance) -> str:
    """Digest of the instance *content*: ``p`` matrix + DAG, name excluded.

    Rename-insensitive by construction — the ``name`` field is a label
    carried for humans, and two instances differing only in it must share
    cache entries and batch groups.
    """
    payload = instance.to_dict()
    payload.pop("name", None)
    return digest(payload)


def schedule_hash(schedule) -> str:
    """Digest of the schedule content.

    Oblivious/cyclic tables hash their step tables; a solver *name* (the
    ``evaluate()`` registry sugar) hashes as the name itself, which is
    exactly its content — the built schedule is a deterministic function
    of (name, instance, request seed).  Anything else (adaptive policies,
    regimens built in-process) has no canonical serialized content and is
    rejected: the server's wire protocol cannot carry it anyway.
    """
    if isinstance(schedule, str):
        return digest({"kind": "solver", "name": schedule})
    if isinstance(schedule, (ObliviousSchedule, CyclicSchedule)):
        return digest(schedule.to_dict())
    raise ValidationError(
        f"cannot hash a {type(schedule).__name__} schedule for serving; the "
        "wire protocol carries oblivious/cyclic tables or a registry solver "
        "name"
    )


def job_key(
    instance: SUUInstance, schedule, request: EvaluationRequest
) -> str:
    """The one content key a served evaluation is deduplicated/cached by."""
    return digest(
        {
            "instance": instance_hash(instance),
            "schedule": schedule_hash(schedule),
            "request": request.request_hash(),
        }
    )
