"""Unit tests for the multi-process serving supervisor.

Everything here is fast and (mostly) subprocess-free: the worker pipe
framing, the WAL owner lock, the budget remaining-time helper, the
graceful-drain plumbing of :class:`~repro.serve.app.ServeApp`, the
respawn flap cap (driven through the ``worker_spawn`` fault seam, which
fails the fork before any process exists), the worker's frame executor,
query failover, the mutation seq-hint dedup decision, and the /readyz
quorum arithmetic — the pool-backend cases driven through the shared
request pipeline (``Supervisor.handle``) over a stubbed frame dispatch.
The end-to-end SIGKILL matrix over real worker processes lives in
``tests/test_serve_procs_chaos.py``.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.data.synthetic import synthetic_dataset
from repro.exceptions import ProtocolError, ServeError, WalError
from repro.index import snapshot as snapshot_io
from repro.index.sstree import SSTree
from repro.obs import export as obs_export
from repro.obs import names
from repro.robust import faults
from repro.serve.admission import AdmissionController
from repro.serve.app import ServeApp
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    HttpRequest,
    encode_frame,
    read_frame,
    read_frame_async,
)
from repro.serve import executor
from repro.serve.retry import is_transient
from repro.serve.supervisor import (
    Supervisor,
    SupervisorConfig,
    WorkerSlot,
    WorkerUnavailable,
)
from repro.serve.tenancy import TenantPolicy, default_classes
from repro.serve.worker import execute
from repro.serve.smoke import request
from repro.stream.engine import StreamingIndex
from repro.stream.wal import WriteAheadLog


# ----------------------------------------------------------------------
# Worker pipe framing
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_round_trip(self):
        payload = {"op": "request", "id": 7, "body": "x" * 500}
        stream = io.BytesIO(encode_frame(payload) + encode_frame({"op": "ping"}))
        assert read_frame(stream) == payload
        assert read_frame(stream) == {"op": "ping"}

    def test_clean_eof_is_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_mid_header_eof_raises(self):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_mid_body_eof_raises(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(frame[:-1]))

    def test_non_object_payload_raises(self):
        body = b"[1, 2]"
        framed = len(body).to_bytes(4, "big") + body
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(framed))

    def test_oversized_frame_rejected_both_ways(self):
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(huge + b"x"))
        with pytest.raises(ProtocolError):
            encode_frame({"pad": "x" * MAX_FRAME_BYTES})

    def test_async_reader_matches_sync(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "pong", "id": 3}))
            reader.feed_eof()
            first = await read_frame_async(reader)
            second = await read_frame_async(reader)
            return first, second

        first, second = asyncio.run(go())
        assert first == {"op": "pong", "id": 3}
        assert second is None

    def test_async_reader_mid_frame_raises(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"op": "pong"})[:-2])
            reader.feed_eof()
            await read_frame_async(reader)

        with pytest.raises(ProtocolError):
            asyncio.run(go())


# ----------------------------------------------------------------------
# WAL owner lock (the mutation worker's exclusivity)
# ----------------------------------------------------------------------
class TestWalOwnerLock:
    def test_second_exclusive_open_refused_while_held(self, tmp_path):
        first = WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        try:
            with pytest.raises(WalError):
                WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        finally:
            first.close()
        # Released on close: the next owner acquires it cleanly.
        second = WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        second.close()

    def test_non_exclusive_open_ignores_the_lock(self, tmp_path):
        owner = WriteAheadLog.open(str(tmp_path / "wal"), exclusive=True)
        try:
            reader = WriteAheadLog.open(str(tmp_path / "wal"))
            reader.close()
        finally:
            owner.close()


# ----------------------------------------------------------------------
# ServeApp graceful drain (single-process close contract)
# ----------------------------------------------------------------------
class TestServeAppDrain:
    def _app(self) -> ServeApp:
        return ServeApp(
            policy=TenantPolicy(default_classes()),
            admission=AdmissionController(max_concurrency=2, max_queue=4),
        )

    def test_close_waits_for_in_flight_work(self):
        app = self._app()
        app.admission._in_flight = 1

        def finish_soon():
            time.sleep(0.05)
            app.admission._in_flight = 0

        settler = threading.Thread(target=finish_soon)
        started = time.monotonic()
        settler.start()
        app.close(drain_s=5.0)
        settler.join()
        elapsed = time.monotonic() - started
        assert 0.04 <= elapsed < 1.0  # waited for the work, not the deadline
        assert app.draining

    def test_close_gives_up_at_the_deadline(self):
        app = self._app()
        app.admission._in_flight = 1
        with obs.enabled_scope(True), obs.scope():
            started = time.monotonic()
            app.close(drain_s=0.1)
            elapsed = time.monotonic() - started
            counters = obs.collect()["counters"]
        app.admission._in_flight = 0
        assert elapsed >= 0.1
        assert counters.get(names.SERVE_WORKERS_DRAIN_TIMEOUTS) == 1

    def test_draining_app_503s_new_work_and_fails_readyz(self):
        app = self._app()

        async def go():
            request_cls = __import__(
                "repro.serve.protocol", fromlist=["HttpRequest"]
            ).HttpRequest
            app._draining = True
            query = request_cls(
                method="POST",
                path="/query",
                query={},
                headers={},
                body=json.dumps({"index": "default"}).encode(),
            )
            mutate = request_cls(
                method="POST", path="/mutate", query={}, headers={},
                body=query.body,
            )
            ready = request_cls(
                method="GET", path="/readyz", query={}, headers={}
            )
            return (
                await app.handle(query),
                await app.handle(mutate),
                await app.handle(ready),
            )

        q, m, r = asyncio.run(go())
        app._draining = False
        app.close(drain_s=0.0)
        assert q.status == 503 and json.loads(q.body)["error"] == "draining"
        assert m.status == 503 and json.loads(m.body)["error"] == "draining"
        assert r.status == 503 and json.loads(r.body)["draining"] is True


# ----------------------------------------------------------------------
# Circuit breaker: the half-open probe quota is a hard cap (threaded)
# ----------------------------------------------------------------------
class TestBreakerProbeCapUnderThreads:
    @pytest.mark.parametrize("half_open_probes", [1, 3])
    def test_concurrent_allow_admits_at_most_the_quota(
        self, half_open_probes
    ):
        breaker = CircuitBreaker(
            "x",
            failure_threshold=1,
            recovery_s=0.01,
            half_open_probes=half_open_probes,
        )
        breaker.record_failure()  # -> OPEN
        assert breaker.state is BreakerState.OPEN
        time.sleep(0.02)  # let the recovery window elapse

        n_threads = 16
        barrier = threading.Barrier(n_threads)
        admitted: "list[bool]" = [False] * n_threads

        def probe(i: int) -> None:
            barrier.wait()
            admitted[i] = breaker.allow()

        threads = [
            threading.Thread(target=probe, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker.state is BreakerState.HALF_OPEN
        assert sum(admitted) == half_open_probes

    def test_settled_probe_reopens_or_closes_consistently(self):
        breaker = CircuitBreaker(
            "x", failure_threshold=1, recovery_s=0.01, half_open_probes=1
        )
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED


# ----------------------------------------------------------------------
# Supervisor internals (no real worker processes)
# ----------------------------------------------------------------------
def make_supervisor(**overrides) -> Supervisor:
    config = SupervisorConfig(
        query_workers=overrides.pop("query_workers", 2),
        snapshots=overrides.pop("snapshots", {"default": "/nonexistent.snap"}),
        streams=overrides.pop("streams", {}),
        **overrides,
    )
    return Supervisor(config)


class TestSupervisorValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ServeError):
            make_supervisor(query_workers=0)

    def test_no_shards_rejected(self):
        with pytest.raises(ServeError):
            Supervisor(SupervisorConfig(query_workers=1))


def post(path: str, body: dict, tenant: "str | None" = None) -> HttpRequest:
    return HttpRequest(
        method="POST",
        path=path,
        query={},
        headers={"x-tenant-class": tenant} if tenant else {},
        body=json.dumps(body).encode(),
    )


QUERY = {"kind": "knn", "index": "default", "center": [0.5, 0.5, 0.5],
         "radius": 0.1, "k": 2}


class TestWorkerFaultOutcome:
    def test_absorbed_worker_fault_is_transient(self):
        # A handler explosion inside a worker's attempt crosses the pipe
        # as an absorbed-fault outcome that the front's retry policy
        # sees as transient.
        dataset = synthetic_dataset(40, 3, seed=2)
        states = {
            "default": executor.index_state(
                "default", SSTree.bulk_load(dataset.items())
            )
        }
        frame = {
            "op": "query",
            "id": 1,
            "params": {
                **QUERY,
                "criterion": "hyperbola",
                "strategy": "hs",
                "algorithm": "incremental",
            },
            "limits": default_classes()["standard"].limits(),
        }
        with faults.inject("handler", "raise"):
            reply = execute(states, json.loads(json.dumps(frame)))
        assert reply["op"] == "done" and reply["id"] == 1
        outcome = executor.decode_outcome(reply["result"])
        assert is_transient(outcome)
        assert outcome.report.absorbed_faults == 1
        assert outcome.report.exhausted == "fault"


def done(result) -> dict:
    return {"op": "done", "result": result}


CLEAN = {"value": {"keys": [1, 2, 3], "distk": 0.5}, "report": None}


class TestQueryFailover:
    def _pool(self):
        sup = make_supervisor(query_workers=2)
        sup._slots = [
            WorkerSlot(slot=i, role="query", state="ready", pid=100 + i)
            for i in range(2)
        ]
        return sup

    def _stub_dispatch(self, sup, deaths: int):
        """The first *deaths* dispatches lose their worker mid-flight."""
        dispatched: "list[int]" = []

        async def dispatch(slot, frame, timeout):
            dispatched.append(slot.slot)
            if len(dispatched) <= deaths:
                slot.state = "dead"
                raise WorkerUnavailable(f"worker {slot.pid} closed its pipe")
            assert frame["op"] == "query" and timeout > 0
            return done(CLEAN)

        sup._dispatch = dispatch  # type: ignore[method-assign]
        return dispatched

    @pytest.mark.parametrize("tenant", ["interactive", "standard", "batch"])
    def test_lost_dispatch_is_resent_once_on_a_survivor(self, tenant):
        sup = self._pool()
        dispatched = self._stub_dispatch(sup, deaths=1)
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(sup.handle(post("/query", QUERY, tenant)))
            counters = obs.collect()["counters"]
        body = json.loads(response.body)
        assert response.status == 200, body
        assert body["result"] == CLEAN["value"] and body["attempts"] == 1
        assert len(dispatched) == 2 and dispatched[0] != dispatched[1]
        assert counters.get(names.SERVE_WORKERS_FAILOVERS) == 1

    def test_no_survivor_is_503_worker_unavailable_not_206(self):
        sup = self._pool()
        self._stub_dispatch(sup, deaths=2)
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(sup.handle(post("/query", QUERY)))
            counters = obs.collect()["counters"]
        assert response.status == 503
        assert json.loads(response.body)["error"] == "worker_unavailable"
        assert "retry-after" in {k.lower() for k in response.headers}
        assert counters.get(names.SERVE_WORKERS_FAILOVERS) == 2
        assert names.SERVE_RESPONSES_DEGRADED not in counters

    def test_worker_loss_never_counts_against_the_breaker(self):
        # Past the failure threshold: had any loss been recorded as a
        # breaker failure, the breaker would open and shed 429s.
        sup = self._pool()
        breaker = sup.breaker("default")

        async def go():
            statuses = []
            for _ in range(breaker.failure_threshold + 2):
                for slot in sup._slots:
                    slot.state = "ready"
                self._stub_dispatch(sup, deaths=2)
                statuses.append((await sup.handle(post("/query", QUERY))).status)
            return statuses

        assert asyncio.run(go()) == [503] * (breaker.failure_threshold + 2)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.failure_streak == 0


class TestRespawnFlapCap:
    def test_persistently_failing_spawn_hits_the_flap_cap(self):
        sup = make_supervisor(
            query_workers=1,
            backoff_base_s=0.001,
            backoff_cap_s=0.002,
            flap_window_s=30.0,
            flap_max=3,
        )
        slot = WorkerSlot(slot=0, role="query")
        sup._slots.append(slot)

        async def go():
            with faults.inject("worker_spawn", "raise") as handle:
                await sup._boot(slot)
                deadline = asyncio.get_running_loop().time() + 5.0
                while slot.state != "failed":
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                return handle.hits

        with obs.enabled_scope(True), obs.scope():
            hits = asyncio.run(go())
            counters = obs.collect()["counters"]
        assert slot.state == "failed"
        assert hits >= 3  # first boot + the capped respawn attempts
        assert counters.get(names.SERVE_WORKERS_FLAP_CAPPED) == 1
        assert counters.get(names.SERVE_WORKERS_SPAWN_FAILURES, 0) >= 3
        assert names.fault("worker_spawn", "raise") in counters


class TestMutationSeqDedup:
    MUTATION = {"index": "live", "op": "insert", "key": "k9",
                "center": [1.0, 2.0, 3.0], "radius": 0.5}

    def _sup_with_mutation_slot(self, last_acked: int, recovered: int):
        sup = make_supervisor(
            query_workers=1,
            snapshots={"default": "/nonexistent.snap"},
            streams={"live": "/nonexistent-stream"},
        )
        slot = WorkerSlot(slot=0, role="mutation", state="ready")
        slot.last_seq = {"live": recovered}
        sup._mutation_slot = slot
        sup._slots.append(slot)
        sup._last_acked["live"] = last_acked
        return sup, slot

    def _crash_then(self, sup, reply=None):
        """The in-flight dispatch dies; later ones answer *reply*."""
        dispatched: "list[dict]" = []

        async def dispatch(slot_, frame_, timeout):
            dispatched.append(frame_)
            if len(dispatched) == 1:
                raise WorkerUnavailable("mutation worker died mid-append")
            if reply is None:  # pragma: no cover
                raise AssertionError("re-ack path must not resend")
            return reply

        sup._dispatch = dispatch  # type: ignore[method-assign]
        return dispatched

    def test_durable_inflight_mutation_is_reacked_not_resent(self):
        # Handshake seq ABOVE the last ack: the crashed worker's append
        # hit the fsynced WAL, so the supervisor must re-ack, not
        # resend (a resend would apply the mutation twice).
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=5)
        self._crash_then(sup)
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(sup.handle(post("/mutate", self.MUTATION)))
            counters = obs.collect()["counters"]
        body = json.loads(response.body)
        assert response.status == 200
        assert body["acked"] is True
        assert body["seq"] == 5
        assert body["recovered"] is True
        assert body["key"] == "k9"
        assert sup._last_acked["live"] == 5
        assert counters.get(names.SERVE_WORKERS_MUTATIONS_REACKED) == 1
        assert names.SERVE_WORKERS_MUTATIONS_RESENT not in counters

    def test_lost_inflight_mutation_is_resent_once(self):
        # Handshake seq AT the last ack: the append provably never
        # reached the log — resend exactly once.
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=4)
        dispatched = self._crash_then(sup, reply=done(5))
        with obs.enabled_scope(True), obs.scope():
            response = asyncio.run(sup.handle(post("/mutate", self.MUTATION)))
            counters = obs.collect()["counters"]
        assert response.status == 200
        assert json.loads(response.body)["seq"] == 5
        assert len(dispatched) == 2  # the lost one, then one resend
        assert dispatched[1] == dispatched[0]
        assert sup._last_acked["live"] == 5
        assert counters.get(names.SERVE_WORKERS_MUTATIONS_RESENT) == 1
        assert names.SERVE_WORKERS_MUTATIONS_REACKED not in counters

    def test_unrecovered_worker_is_an_honest_unacked_503(self):
        sup, slot = self._sup_with_mutation_slot(last_acked=4, recovered=4)
        slot.state = "failed"
        self._crash_then(sup)
        response = asyncio.run(sup.handle(post("/mutate", self.MUTATION)))
        body = json.loads(response.body)
        assert response.status == 503
        assert body["acked"] is False


class TestReadyzQuorum:
    def _sup_with_states(self, states, mutation_state=None) -> Supervisor:
        sup = make_supervisor(
            query_workers=max(len(states), 1),
            streams=(
                {"live": "/nonexistent-stream"} if mutation_state else {}
            ),
        )
        for i, state in enumerate(states):
            sup._slots.append(WorkerSlot(slot=i, role="query", state=state))
        if mutation_state is not None:
            slot = WorkerSlot(
                slot=len(states), role="mutation", state=mutation_state
            )
            sup._mutation_slot = slot
            sup._slots.append(slot)
        return sup

    def test_majority_live_is_ready(self):
        sup = self._sup_with_states(["ready", "ready", "dead"])
        response = sup._readyz()
        body = json.loads(response.body)
        assert response.status == 200
        assert body["ready"] is True
        assert body["workers"]["query"] == {
            "total": 3, "live": 2, "quorum": 2,
        }

    def test_minority_live_is_not_ready(self):
        sup = self._sup_with_states(["ready", "dead", "dead"])
        response = sup._readyz()
        body = json.loads(response.body)
        assert response.status == 503
        assert body["ready"] is False

    def test_dead_mutation_worker_blocks_readiness(self):
        sup = self._sup_with_states(["ready", "ready"], mutation_state="dead")
        body = json.loads(sup._readyz().body)
        assert body["ready"] is False
        assert body["workers"]["mutation"] == {"live": False}

    def test_draining_is_never_ready(self):
        sup = self._sup_with_states(["ready", "ready"])
        sup.request_drain()
        body = json.loads(sup._readyz().body)
        assert body["ready"] is False
        assert body["draining"] is True

    def test_slots_snapshot_lists_every_worker(self):
        sup = self._sup_with_states(["ready", "failed"])
        snapshot = sup.slots_snapshot()
        assert [s["state"] for s in snapshot] == ["ready", "failed"]


# ----------------------------------------------------------------------
# One pipeline, two backends: what a client sees is the same (these
# boot real worker processes, ~1 s each)
# ----------------------------------------------------------------------
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(scope="module")
def served_dataset():
    return synthetic_dataset(60, 3, seed=4)


@pytest.fixture(scope="module")
def snapshot_path(served_dataset, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pool") / "default.snap")
    snapshot_io.save(SSTree.bulk_load(served_dataset.items()), path)
    return path


def readyz_indexes(app: ServeApp) -> dict:
    async def go():
        host, port = await app.start()
        try:
            status, _, raw = await request(host, port, "GET", "/readyz")
        finally:
            await app.drain_and_stop()
        assert status == 200, raw
        return json.loads(raw)["indexes"]

    try:
        return asyncio.run(go())
    finally:
        app.close(drain_s=0.0)


class TestPooledParity:
    def test_readyz_index_blocks_match_single_process(
        self, snapshot_path, served_dataset, tmp_path
    ):
        stream_dir = str(tmp_path / "live")
        StreamingIndex.create(
            stream_dir, list(served_dataset.items()), kind="sstree"
        ).close()
        single = ServeApp.from_snapshots({"default": snapshot_path})
        single.load_stream("live", stream_dir)
        expected = readyz_indexes(single)
        pooled = readyz_indexes(
            Supervisor(
                SupervisorConfig(
                    query_workers=1,
                    snapshots={"default": snapshot_path},
                    streams={"live": stream_dir},
                )
            )
        )
        assert set(pooled) == set(expected) == {"default", "live"}
        for name in expected:
            assert set(pooled[name]) == set(expected[name]), name
            assert pooled[name]["dimension"] == expected[name]["dimension"]
            assert pooled[name]["entries"] == expected[name]["entries"]
        assert {"mutable", "last_seq", "overlay_entries"} <= set(pooled["live"])
        assert pooled["default"]["breaker"]["state"] == "closed"

    def test_pooled_cli_writes_one_event_per_query(self, snapshot_path, tmp_path):
        log_path = str(tmp_path / "events.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--snapshot", f"default={snapshot_path}", "--port", "0",
             "--event-log", log_path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            assert server.stdout is not None
            banner = server.stdout.readline()
            port = int(banner.rsplit(":", 1)[1].split()[0])
            kinds = ["knn", "rknn", "dominating"]
            replies = [
                asyncio.run(
                    request("127.0.0.1", port, "POST", "/query",
                            body={**QUERY, "kind": kind})
                )
                for kind in kinds
            ]
        finally:
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
        statuses = [status for status, _, _ in replies]
        assert statuses == [200, 200, 200]
        results = [json.loads(raw)["result"] for _, _, raw in replies]
        events = obs_export.read_events(log_path)
        assert [event.kind for event in events] == [f"serve.{k}" for k in kinds]
        assert [event.status for event in events] == statuses
        assert {event.tenant for event in events} == {"standard"}
        assert events[0].answer_size == len(results[0]["keys"])
        assert events[0].stats["dominance_checks"] == results[0]["dominance_checks"]
        assert events[1].answer_size == len(results[1])
