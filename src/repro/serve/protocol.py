"""HTTP/JSON wire protocol for the evaluation server (stdlib only).

A deliberately small HTTP/1.1 subset over asyncio streams — no
framework, no dependency — serving four endpoints:

| Method | Path          | Body                                   | Reply |
|--------|---------------|----------------------------------------|-------|
| POST   | ``/evaluate`` | ``{"instance", "schedule", "request"}``| job envelope (``report`` = ``EvaluationReport.to_dict()``) |
| GET    | ``/jobs/<id>``| —                                      | stored envelope, 404 when unknown |
| GET    | ``/healthz``  | —                                      | liveness + queue depths |
| GET    | ``/metrics``  | —                                      | serve counter snapshot (+ ``repro.obs`` counters when enabled) |

``schedule`` is either a table dict (``{"kind": "oblivious"|"cyclic",
...}``, the core types' ``to_dict`` shape) or a registry solver name.
Error mapping: malformed work → 400, unknown job/path → 404, admission
shed → 429 with a ``Retry-After`` header, compute failure → 500 — every
body is JSON with an ``"error"`` field.
"""

from __future__ import annotations

import asyncio
import json

from .. import obs
from ..core.instance import SUUInstance
from ..core.schedule import schedule_from_dict
from ..errors import AdmissionError, ReproError, ValidationError
from ..evaluate.request import EvaluationRequest
from .server import EvaluationServer

__all__ = ["start_http_server", "decode_schedule", "PROTOCOL_VERSION"]

#: Bumped when the wire shape of requests/envelopes changes.
#: v2: envelope provenance no longer carries ``batched_with``.
#: v3: requests no longer take ``workers`` / ``executor`` / ``shards``, and
#: the envelope's report lost ``sharded`` and ``request.workers/shards``.
#: v4: ``engine`` accepts only ``auto`` / ``scalar`` (``sparse`` and
#: ``batched`` re-spelled ``mode``).
PROTOCOL_VERSION = 4

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd payloads before buffering them

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def decode_schedule(payload):
    """Wire schedule → core object (table dicts) or solver name (str)."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, dict):
        return schedule_from_dict(payload)
    raise ValidationError(
        f"schedule must be a table dict or a solver name, got "
        f"{type(payload).__name__}"
    )


def _decode_evaluate_body(body: bytes):
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    missing = {"instance", "schedule"} - set(payload)
    if missing:
        raise ValidationError(f"request body is missing {sorted(missing)}")
    instance = SUUInstance.from_dict(payload["instance"])
    schedule = decode_schedule(payload["schedule"])
    req_kwargs = payload.get("request") or {}
    if not isinstance(req_kwargs, dict):
        raise ValidationError("'request' must be a JSON object of evaluate() kwargs")
    try:
        request = EvaluationRequest(**req_kwargs)
    except TypeError as exc:
        raise ValidationError(f"bad request payload: {exc}") from None
    return instance, schedule, request


async def _handle(server: EvaluationServer, method: str, path: str, body: bytes):
    """Route one request; returns ``(status, payload_dict, extra_headers)``."""
    if method == "POST" and path == "/evaluate":
        instance, schedule, request = _decode_evaluate_body(body)
        envelope = await server.submit(instance, schedule, request)
        return 200, envelope, {}
    if method == "GET" and path.startswith("/jobs/"):
        envelope = server.get_job(path[len("/jobs/") :])
        if envelope is None:
            return 404, {"error": f"unknown job {path[len('/jobs/'):]!r}"}, {}
        return 200, envelope, {}
    if method == "GET" and path == "/healthz":
        return (
            200,
            {
                "status": "ok",
                "protocol_version": PROTOCOL_VERSION,
                "queued": server.metrics_snapshot()["serve.queued"],
                "pending": server.metrics_snapshot()["serve.pending"],
            },
            {},
        )
    if method == "GET" and path == "/metrics":
        snapshot = server.metrics_snapshot()
        if obs.enabled():
            snapshot["obs"] = obs.counters()
        return 200, snapshot, {}
    return 404, {"error": f"no route for {method} {path}"}, {}


async def _read_request(reader: asyncio.StreamReader):
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ValidationError("malformed HTTP request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY:
        raise ValidationError(f"request body of {length} bytes exceeds {_MAX_BODY}")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, body


def _encode_response(status: int, payload: dict, extra_headers: dict) -> bytes:
    body = json.dumps(payload).encode()
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


async def _serve_connection(
    server: EvaluationServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            parsed = await _read_request(reader)
            if parsed is None:
                return
            method, path, body = parsed
            status, payload, extra = await _handle(server, method, path, body)
        except AdmissionError as exc:
            status, payload, extra = (
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                {"Retry-After": f"{exc.retry_after_s:g}"},
            )
        except (ValidationError, asyncio.IncompleteReadError) as exc:
            status, payload, extra = 400, {"error": str(exc)}, {}
        except ReproError as exc:
            status, payload, extra = 500, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - the wire must answer
            status, payload, extra = 500, {"error": f"internal error: {exc}"}, {}
        writer.write(_encode_response(status, payload, extra))
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass


async def start_http_server(
    server: EvaluationServer, host: str = "127.0.0.1", port: int = 8071
) -> asyncio.AbstractServer:
    """Bind the HTTP codec over a started :class:`EvaluationServer`.

    Returns the listening :class:`asyncio.Server`; the caller owns both
    lifetimes (``suu serve`` runs it with ``serve_forever`` and drains the
    evaluation server on shutdown).
    """

    async def handler(reader, writer):
        await _serve_connection(server, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)
