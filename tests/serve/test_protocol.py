"""HTTP wire protocol, end to end through :class:`ServeClient`.

The server runs a real asyncio loop in a daemon thread (no
pytest-asyncio in the image) bound to an ephemeral port; the client
side is the same stdlib :class:`ServeClient` the load script and the
README quickstart use.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import warnings

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance
from repro.core.schedule import ObliviousSchedule
from repro.errors import AdmissionError, ServeError
from repro.evaluate import EvaluationRequest, evaluate
from repro.serve import EvaluationServer, ServeClient, ServerConfig, start_http_server
from repro.serve.protocol import PROTOCOL_VERSION, decode_schedule


class _HttpServerThread:
    """An EvaluationServer + HTTP codec on an ephemeral port, off-thread."""

    def __init__(self, config: ServerConfig):
        self._config = config
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.port: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with EvaluationServer(self._config) as server:
            http_srv = await start_http_server(server, port=0)
            self.port = http_srv.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
            http_srv.close()
            await http_srv.wait_closed()

    def __enter__(self) -> "_HttpServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=10), "server thread failed to start"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)


@pytest.fixture
def inst():
    rng = np.random.default_rng(19)
    p = rng.uniform(0.3, 0.9, size=(2, 4))
    return SUUInstance(p, PrecedenceDAG(4, [(0, 3)]), name="wire")


@pytest.fixture
def sched(inst):
    rng = np.random.default_rng(2)
    return ObliviousSchedule(
        rng.integers(0, inst.n, size=(30, inst.m)).astype(np.int32)
    )


@pytest.fixture
def served():
    with _HttpServerThread(ServerConfig(cache_dir=None)) as handle:
        yield ServeClient(port=handle.port)


class TestEvaluateEndpoint:
    def test_served_matches_solo_bitwise(self, served, inst, sched):
        kwargs = dict(mode="mc", reps=50, seed=17)
        report = served.evaluate(inst, sched, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solo = evaluate(inst, sched, request=EvaluationRequest(**kwargs))
        got, want = report.to_dict(), solo.to_dict()
        got.pop("wall_time_s"), want.pop("wall_time_s")
        assert got == want

    def test_schedule_decodes_both_wire_forms(self, sched):
        table = decode_schedule(sched.to_dict())
        assert np.array_equal(table.table, sched.table)
        assert decode_schedule("serial") == "serial"

    def test_envelope_and_jobs_endpoint_agree(self, served, inst, sched):
        envelope = served.evaluate_raw(
            inst.to_dict(), sched.to_dict(), {"mode": "mc", "reps": 30, "seed": 1}
        )
        assert envelope["status"] == "done"
        assert served.job(envelope["job_id"]) == envelope

    def test_replies_share_field_name_strings(self, served, inst, sched):
        # A caller keeping many envelopes holds each field name once.
        a, b = (
            served.evaluate_raw(
                inst.to_dict(), sched.to_dict(), {"mode": "mc", "reps": 10, "seed": seed}
            )
            for seed in (11, 12)
        )
        assert list(a["report"]) == list(b["report"])
        assert all(ka is kb for ka, kb in zip(a["report"], b["report"]))

    def test_duplicate_posts_coalesce_over_the_wire(self, served, inst, sched):
        req = {"mode": "mc", "reps": 30, "seed": 4}
        first = served.evaluate_raw(inst.to_dict(), sched.to_dict(), req)
        second = served.evaluate_raw(inst.to_dict(), sched.to_dict(), req)
        # Sequential duplicates replay from the result cache (memory LRU
        # lives even with the disk layer off) — byte-identical report.
        assert second["provenance"]["cache_hit"] is True
        assert second["report"] == first["report"]


class TestOperationalEndpoints:
    def test_healthz(self, served):
        health = served.healthz()
        assert health["status"] == "ok"
        assert health["protocol_version"] == PROTOCOL_VERSION

    def test_metrics_snapshot(self, served, inst, sched):
        served.evaluate(inst, sched, mode="mc", reps=20, seed=2)
        snap = served.metrics()
        assert snap["serve.requests"] >= 1
        assert snap["serve.jobs_computed"] >= 1
        assert "serve.dedup_total" in snap
        # Cross-request batching is retired; the counter stays, at zero.
        assert snap["serve.batch_groups"] == 0


class TestErrorMapping:
    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServeError, match="HTTP 404"):
            served.job("j-999999")

    def test_unknown_path_is_404(self, served):
        with pytest.raises(ServeError, match="HTTP 404"):
            served._call("GET", "/nope")

    def test_malformed_json_is_400(self, served):
        conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/evaluate",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert b"error" in resp.read()
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "where,payload,match",
        [
            ("schedule", {"kind": "cyclic"}, "bad cyclic schedule payload: KeyError"),
            ("schedule", {"kind": "oblivious", "table": [["a"]]}, "bad oblivious schedule"),
            ("edges", [[0]], "bad DAG payload"),
            ("schedule", {"kind": "regimen", "table": [[0, 1]]}, "unknown schedule kind"),
            ("entry", 2**31, "bad oblivious schedule payload: OverflowError"),
            ("entry", 2.5, "expected JSON integers, got float"),
            ("entry", True, "expected JSON integers, got bool"),
            ("entry", "2", "expected JSON integers, got str"),
            ("n", 2.7, "bad DAG payload: TypeError: n must be a JSON integer"),
            ("n", True, "bad DAG payload: TypeError: n must be a JSON integer"),
            ("n", "2", "bad DAG payload: TypeError: n must be a JSON integer"),
            ("edges", [[0, 1.5]], "bad DAG payload: TypeError: expected JSON integers"),
            ("edges", [[0, True]], "bad DAG payload: TypeError: expected JSON integers"),
            ("edges", [[0, "1"]], "bad DAG payload: TypeError: expected JSON integers"),
            ("p", "0.5", "bad instance payload: TypeError: expected JSON numbers"),
            ("p", True, "bad instance payload: TypeError: expected JSON numbers"),
        ],
        ids=[
            "cyclic-without-cycle",
            "non-integer-table",
            "one-ended-edge",
            "regimen-kind",
            "entry-2**31",
            "entry-real",
            "entry-bool",
            "entry-string",
            "n-real",
            "n-bool",
            "n-string",
            "edge-real",
            "edge-bool",
            "edge-string",
            "p-string",
            "p-bool",
        ],
    )
    def test_malformed_payloads_are_400(self, served, inst, sched, where, payload, match):
        # Decoded into one ValidationError, not a 500 "internal error" and
        # not a silent cast (2.5, true and "2" are not job ids).
        inst_dict, sched_dict = inst.to_dict(), sched.to_dict()
        if where in ("n", "edges"):
            inst_dict["dag"][where] = payload
        elif where == "p":
            inst_dict["p"][0][0] = payload
        elif where == "entry":
            sched_dict["table"][0][0] = payload
        else:
            sched_dict = payload
        with pytest.raises(ServeError, match=f"HTTP 400.*{match}"):
            served.evaluate_raw(inst_dict, sched_dict, {"mode": "mc", "reps": 10, "seed": 1})

    def test_invalid_request_kwargs_are_400(self, served, inst, sched):
        with pytest.raises(ServeError, match="HTTP 400"):
            served.evaluate_raw(inst.to_dict(), sched.to_dict(), {"reps": 0})

    def test_non_integer_reps_is_400_naming_reps(self, served, inst, sched):
        # Validated before any work is queued, not a 500 from the kernel.
        with pytest.raises(ServeError, match="HTTP 400.*reps must be an integer"):
            served.evaluate_raw(inst.to_dict(), sched.to_dict(), {"reps": 2.5})

    @pytest.mark.parametrize("engine", ["sparse", "batched"])
    def test_engine_aliases_are_400(self, served, inst, sched, engine):
        request = {"mode": "mc", "reps": 10, "seed": 1, "engine": engine}
        with pytest.raises(ServeError, match="HTTP 400.*unknown engine"):
            served.evaluate_raw(inst.to_dict(), sched.to_dict(), request)

    def test_process_pool_knobs_are_400(self, served, inst, sched):
        # A served request cannot start processes: the pool knobs are not
        # request fields, so the body is refused before any work is queued.
        request = {"mode": "mc", "reps": 4000, "seed": 1, "workers": 12, "shards": 12}
        with pytest.raises(ServeError, match="HTTP 400.*workers"):
            served.evaluate_raw(inst.to_dict(), sched.to_dict(), request)

    def test_shed_is_429_with_retry_after(self, inst, sched):
        config = ServerConfig(cache_dir=None, max_queue=0, retry_after_s=0.75)
        with _HttpServerThread(config) as handle:
            client = ServeClient(port=handle.port)
            with pytest.raises(AdmissionError) as err:
                client.evaluate(inst, sched, mode="mc", reps=10, seed=1)
            assert err.value.retry_after_s == 0.75
            # The raw reply also carries the header form.
            conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
            try:
                body = json.dumps(
                    {
                        "instance": inst.to_dict(),
                        "schedule": sched.to_dict(),
                        "request": {"mode": "mc", "reps": 10, "seed": 1},
                    }
                ).encode()
                conn.request(
                    "POST",
                    "/evaluate",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                resp.read()
                resp.close()
                assert resp.status == 429
                assert resp.getheader("Retry-After") == "0.75"
            finally:
                conn.close()
