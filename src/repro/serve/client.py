"""Stdlib client for the evaluation server.

A thin :mod:`http.client` wrapper speaking the protocol in
:mod:`repro.serve.protocol` — used by the CI load script, the serving
benchmark, and the README's quickstart.  Zero dependencies, safe to use
from threads (each call opens one connection, mirroring the server's
``Connection: close`` replies).
"""

from __future__ import annotations

import http.client
import json
import sys

from ..core.instance import SUUInstance
from ..errors import AdmissionError, ServeError
from ..evaluate.report import EvaluationReport

__all__ = ["ServeClient"]


def _interned(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object whose field names are shared across replies.

    Every envelope repeats the same few dozen field names, so a caller
    that keeps many envelopes (a load generator, a benchmark) holds each
    name once instead of once per reply: about half the memory of a
    retained MC envelope.
    """
    return {sys.intern(k): v for k, v in pairs}


class ServeClient:
    """Talk to a running ``suu serve`` instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8071, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -------------------------------------------------------
    def _call(self, method: str, path: str, payload: dict | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                data = json.loads(raw, object_pairs_hook=_interned) if raw else {}
            except json.JSONDecodeError:
                raise ServeError(
                    f"{method} {path}: non-JSON reply (HTTP {resp.status})"
                ) from None
            if resp.status == 429:
                raise AdmissionError(
                    data.get("error", "shed"),
                    retry_after_s=float(
                        data.get("retry_after_s")
                        or resp.getheader("Retry-After")
                        or 1.0
                    ),
                )
            if resp.status != 200:
                detail = data.get("error") if isinstance(data, dict) else None
                raise ServeError(
                    f"{method} {path}: HTTP {resp.status}: {detail or raw[:200]!r}"
                )
            return data
        finally:
            conn.close()

    # -- endpoints -------------------------------------------------------
    def evaluate_raw(
        self, instance_dict: dict, schedule_payload, request_kwargs: dict
    ) -> dict:
        """POST /evaluate with pre-encoded payloads; returns the envelope."""
        return self._call(
            "POST",
            "/evaluate",
            {
                "instance": instance_dict,
                "schedule": schedule_payload,
                "request": request_kwargs,
            },
        )

    def evaluate(
        self, instance: SUUInstance, schedule, **request_kwargs
    ) -> EvaluationReport:
        """The client-side mirror of ``repro.evaluate.evaluate``.

        ``schedule`` is an oblivious/cyclic schedule object (encoded via
        its ``to_dict``) or a registry solver name; returns the rebuilt
        :class:`EvaluationReport` (use :meth:`evaluate_raw` for the full
        envelope with provenance).
        """
        payload = schedule if isinstance(schedule, str) else schedule.to_dict()
        envelope = self.evaluate_raw(instance.to_dict(), payload, request_kwargs)
        return EvaluationReport.from_dict(envelope["report"])

    def job(self, job_id: str) -> dict:
        return self._call("GET", f"/jobs/{job_id}")

    def healthz(self) -> dict:
        return self._call("GET", "/healthz")

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")
