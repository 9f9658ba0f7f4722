"""``repro.serve`` — evaluation-as-a-service over the ``evaluate()`` seam.

A zero-dependency asyncio job server (``suu serve``) that turns the
library's one front door into a long-running service: content-hash
dedup of identical in-flight and completed requests
(:mod:`repro.serve.keys`, :mod:`repro.serve.cache`), admission control
and a worker pool that runs every job as a plain ``evaluate()`` call
(:mod:`repro.serve.server`), and a stdlib HTTP/JSON wire protocol with
matching client (:mod:`repro.serve.protocol`,
:mod:`repro.serve.client`).

``docs/architecture.md`` ("Serving") has the request-lifecycle diagram
and the protocol table.
"""

from .cache import DEFAULT_SERVE_CACHE_DIR, ResultCache
from .client import ServeClient
from .keys import instance_hash, job_key, schedule_hash
from .protocol import PROTOCOL_VERSION, decode_schedule, start_http_server
from .server import EvaluationServer, Job, ServerConfig

__all__ = [
    "DEFAULT_SERVE_CACHE_DIR",
    "EvaluationServer",
    "Job",
    "PROTOCOL_VERSION",
    "ResultCache",
    "ServeClient",
    "ServerConfig",
    "decode_schedule",
    "instance_hash",
    "job_key",
    "schedule_hash",
    "start_http_server",
]
