"""EvaluationServer: dedup, cache replay, admission, drain.

Tentpole acceptance: N concurrent identical requests trigger exactly one
computation (asserted via the ``serve.jobs_computed`` / ``serve.dedup_hits``
counters), cache replay is byte-identical including ``wall_time_s``, and
the server sheds with a retry hint instead of queueing unboundedly.

No pytest-asyncio in the image: every test drives its own loop with
``asyncio.run`` from sync code.
"""

from __future__ import annotations

import asyncio
import json
import warnings

import numpy as np
import pytest

from repro import PrecedenceDAG, SUUInstance, obs
from repro.core.schedule import CyclicSchedule, ObliviousSchedule
from repro.errors import AdmissionError, CensoredEstimateWarning, ServeError, StaleCacheWarning
from repro.evaluate import EvaluationRequest, evaluate
from repro.serve import EvaluationServer, ResultCache, ServerConfig
from repro.serve.cache import SERVE_CACHE_SCHEMA_VERSION


@pytest.fixture
def inst():
    rng = np.random.default_rng(77)
    p = rng.uniform(0.3, 0.9, size=(2, 5))
    return SUUInstance(p, PrecedenceDAG(5, [(0, 2), (1, 4)]), name="served")


@pytest.fixture
def sched(inst):
    rng = np.random.default_rng(5)
    return ObliviousSchedule(
        rng.integers(0, inst.n, size=(40, inst.m)).astype(np.int32)
    )


def _config(**kwargs):
    kwargs.setdefault("cache_dir", None)  # never touch the repo's cwd cache
    return ServerConfig(**kwargs)


def _strip(report_dict):
    d = dict(report_dict)
    d.pop("wall_time_s")
    return d


def _solo_dict(inst, sched, request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _strip(evaluate(inst, sched, request=request).to_dict())


class TestDedup:
    def test_concurrent_duplicates_compute_once(self, inst, sched):
        request = EvaluationRequest(mode="mc", reps=60, seed=21)

        async def run():
            async with EvaluationServer(_config()) as server:
                envelopes = await asyncio.gather(
                    *(dup(server) for _ in range(5))
                )
                return envelopes, dict(server.metrics)

        async def dup(server):
            return await server.submit(inst, sched, request)

        with obs.capture() as tel:
            envelopes, metrics = asyncio.run(run())

        assert metrics["serve.jobs_computed"] == 1
        assert metrics["serve.dedup_hits"] == 4
        assert tel.counters["serve.jobs_computed"] == 1
        assert tel.counters["serve.dedup_hits"] == 4
        reports = [e["report"] for e in envelopes]
        assert all(r == reports[0] for r in reports)
        # The ambient capture above attaches telemetry (timing spans) to
        # the served run; parity is on result data, so drop it alongside
        # wall_time_s before comparing with the uncaptured solo baseline.
        got, want = _strip(reports[0]), _solo_dict(inst, sched, request)
        got.pop("telemetry"), want.pop("telemetry")
        assert got == want
        leaders = [e for e in envelopes if e["provenance"]["deduped_with"] is None]
        followers = [e for e in envelopes if e["provenance"]["deduped_with"]]
        assert len(leaders) == 1 and len(followers) == 4
        assert all(
            f["provenance"]["deduped_with"] == leaders[0]["job_id"] for f in followers
        )

    def test_none_seed_never_coalesces(self, inst, sched):
        request = EvaluationRequest(mode="mc", reps=30, seed=None)

        async def run():
            async with EvaluationServer(_config()) as server:
                a = await server.submit(inst, sched, request)
                b = await server.submit(inst, sched, request)
                return a, b, dict(server.metrics)

        a, b, metrics = asyncio.run(run())
        assert metrics["serve.jobs_computed"] == 2
        assert metrics["serve.dedup_hits"] == 0
        assert a["key"] is None and b["key"] is None


class TestCache:
    def test_replay_is_byte_identical_including_wall_time(self, inst, sched, tmp_path):
        request = EvaluationRequest(mode="mc", reps=50, seed=8)
        config = _config(cache_dir=tmp_path / "serve-cache")

        async def first():
            async with EvaluationServer(config) as server:
                return await server.submit(inst, sched, request)

        async def second():
            # A fresh server (cold memory LRU) replays from disk.
            async with EvaluationServer(config) as server:
                envelope = await server.submit(inst, sched, request)
                return envelope, dict(server.metrics)

        original = asyncio.run(first())
        replayed, metrics = asyncio.run(second())
        assert metrics["serve.cache_hits"] == 1
        assert metrics["serve.jobs_computed"] == 0
        assert replayed["provenance"]["cache_hit"] is True
        assert replayed["report"] == original["report"]  # wall_time_s included

    def test_stale_schema_warns_and_misses(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("abc", {"makespan": 4.0})
        path = cache.path_for("abc")
        entry = json.loads(path.read_text())
        entry["schema_version"] = SERVE_CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))

        cold = ResultCache(cache_dir=tmp_path)
        with pytest.warns(StaleCacheWarning, match="schema_version"):
            assert cold.get("abc") is None

    def test_corrupt_entry_is_a_quiet_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.put("abc", {"makespan": 4.0})
        cache.path_for("abc").write_text("{half a json")
        cold = ResultCache(cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cold.get("abc") is None

    def test_memory_lru_is_bounded(self, tmp_path):
        cache = ResultCache(cache_dir=None, memory_entries=2)
        for i in range(4):
            cache.put(f"k{i}", {"i": i})
        assert len(cache) == 2
        assert cache.get("k0") is None and cache.get("k3") == {"i": 3}


class TestAdmission:
    def test_queue_full_sheds_with_retry_hint(self, inst, sched):
        request = EvaluationRequest(mode="mc", reps=10, seed=1)

        async def run():
            async with EvaluationServer(
                _config(max_queue=0, retry_after_s=0.25)
            ) as server:
                with pytest.raises(AdmissionError) as err:
                    await server.submit(inst, sched, request)
                return err.value, dict(server.metrics)

        exc, metrics = asyncio.run(run())
        assert exc.retry_after_s == 0.25
        assert metrics["serve.shed"] == 1

    def test_exact_state_budget_sheds(self, inst):
        # Only cyclic/regimen schedules have an exact route; oblivious
        # tables would be rejected by dispatch before admission.
        cycle = np.tile(np.arange(inst.n, dtype=np.int32)[:, None], (1, inst.m))
        sched = CyclicSchedule(
            ObliviousSchedule.empty(inst.m), ObliviousSchedule(cycle)
        )
        request = EvaluationRequest(mode="exact")

        async def run():
            async with EvaluationServer(_config(max_inflight_states=1)) as server:
                with pytest.raises(AdmissionError, match="state budget"):
                    await server.submit(inst, sched, request)
                return dict(server.metrics)

        metrics = asyncio.run(run())
        assert metrics["serve.shed"] == 1


class TestLifecycleAndRoutes:
    def test_stopped_server_refuses_work(self, inst, sched):
        request = EvaluationRequest(mode="mc", reps=10, seed=1)

        async def run():
            server = EvaluationServer(_config())
            async with server:
                await server.submit(inst, sched, request)
            with pytest.raises(ServeError, match="not accepting"):
                await server.submit(inst, sched, request)
            assert server._pending == 0

        asyncio.run(run())

    def test_concurrent_mc_requests_each_match_solo(self, inst, sched):
        # Distinct seeds, reps, schedule kinds and metrics in flight at
        # once: each job is its own evaluate() call, bitwise the solo one.
        cycle = np.tile(np.arange(inst.n, dtype=np.int32)[:, None], (1, inst.m))
        cyclic = CyclicSchedule(ObliviousSchedule.empty(inst.m), ObliviousSchedule(cycle))
        jobs = [
            (sched, EvaluationRequest(mode="mc", reps=40, seed=1)),
            (sched, EvaluationRequest(mode="mc", reps=25, seed=2, max_steps=200)),
            (cyclic, EvaluationRequest(mode="mc", reps=57, seed=3)),
            (
                cyclic,
                EvaluationRequest(
                    mode="mc", reps=40, seed=4, metrics=("completion_curve",), horizon=12
                ),
            ),
        ]

        async def run():
            async with EvaluationServer(_config()) as server:
                envelopes = await asyncio.gather(
                    *(server.submit(inst, s, r) for s, r in jobs)
                )
                return envelopes, dict(server.metrics)

        envelopes, metrics = asyncio.run(run())
        assert metrics["serve.jobs_computed"] == len(jobs)
        assert metrics["serve.batch_groups"] == 0
        for envelope, (schedule, request) in zip(envelopes, jobs):
            assert "batched_with" not in envelope["provenance"]
            assert _strip(envelope["report"]) == _solo_dict(inst, schedule, request)
        assert len(envelopes[-1]["report"]["completion_curve"]) == 12

    def test_solver_name_matches_facade_sugar(self, inst):
        request = EvaluationRequest(mode="mc", reps=40, seed=6)

        async def run():
            async with EvaluationServer(_config()) as server:
                return await server.submit(inst, "serial", request)

        envelope = asyncio.run(run())
        assert _strip(envelope["report"]) == _solo_dict(inst, "serial", request)

    def test_exact_route_matches_solo(self, inst):
        cycle = np.tile(np.arange(inst.n, dtype=np.int32)[:, None], (1, inst.m))
        sched_cyc = CyclicSchedule(
            ObliviousSchedule.empty(inst.m), ObliviousSchedule(cycle)
        )
        request = EvaluationRequest(mode="exact")

        async def run():
            async with EvaluationServer(_config()) as server:
                return await server.submit(inst, sched_cyc, request)

        envelope = asyncio.run(run())
        assert envelope["report"]["mode"] == "exact"
        assert _strip(envelope["report"]) == _solo_dict(inst, sched_cyc, request)

    def test_censoring_reaches_the_envelope_in_canonical_wording(self, inst, sched):
        request = EvaluationRequest(mode="mc", reps=40, seed=3, max_steps=2)
        with pytest.warns(CensoredEstimateWarning) as rec:
            solo = evaluate(inst, sched, request=request)
        assert solo.truncated > 0

        async def run():
            async with EvaluationServer(_config()) as server:
                return await server.submit(inst, sched, request)

        envelope = asyncio.run(run())
        assert envelope["warnings"] == [str(rec[0].message)]
