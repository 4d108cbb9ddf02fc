"""Tests for the worker fleet: FleetExecutor, the content-addressed
result store it checkpoints into, and the fleet-aware service
endpoints.

The container has no pytest-asyncio, so async paths run under plain
``asyncio.run`` inside synchronous test functions.  Fleet tests fork
real worker processes; they keep the grids tiny (two cells, one rep)
and the heartbeat fast so failure detection is prompt.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro import telemetry
from repro.core import hostfaults, parallel
from repro.core.hostfaults import HostFaultPlan
from repro.core.study import Study
from repro.core.store import ResultStore
from repro.gpu.faults import FaultPlan
from repro.perf.trace import TraceCache
from repro.service.fleet import FleetExecutor
from repro.service.protocol import CellKey
from repro.service.scheduler import CellScheduler
from repro.service.server import ServiceConfig, SweepService
from tests.durable_ladder import LadderCases, StoreAdapter, restamp

CELLS = (CellKey("cc", "internet", "titanv"),
         CellKey("mis", "internet", "titanv"))


def _run_cells(executor, cells=CELLS, timeout=60.0):
    futures = [executor.submit(key, 300.0) for key in cells]
    return [f.result(timeout=timeout) for f in futures]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _offline(cells=CELLS, **policy):
    """An offline study with the fleet's policy that sweeps each cell on
    its own, serially, in submission order; returns it and the cells."""
    study = Study(**policy)
    return study, [study.sweep(key.device, [key.algorithm],
                               [key.input_name], jobs=1).cells[0]
                   for key in cells]


def _payload(study) -> dict:
    return {"reps": study.reps, "scale": study.scale,
            "results": study._result_records()}


def _wait_for(predicate, timeout=15.0, interval=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# Byte-identity: the fleet is indistinguishable from the serial path
# ----------------------------------------------------------------------
class TestFleetByteIdentity:
    def test_two_workers_match_single_worker_payload(self):
        serial, serial_cells = _offline(reps=1)
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1)
        try:
            fleet_cells = _run_cells(fleet)
            assert _canonical(fleet.results_payload()) == \
                _canonical(_payload(serial))
            for ours, theirs in zip(fleet_cells, serial_cells):
                assert ours.speedup == theirs.speedup
            assert fleet.study.cells_executed == 2 * len(CELLS)
        finally:
            fleet.shutdown()

    def test_a_failed_baseline_keeps_its_racefree_result(self):
        """A fleet worker runs both variants of a cell whose baseline
        fails, as the serial sweep does: the payloads and the failure
        memos are equal."""
        faults = FaultPlan.parse("tear=0.9,stuck=0.7,abort=0.25")
        cells = tuple(CellKey(a, "internet", "titanv")
                      for a in ("cc", "mst", "gc"))
        policy = dict(reps=3, validate=True, retries=3, faults=faults)
        serial, serial_cells = _offline(cells, **policy)
        fleet = FleetExecutor(workers=2, heartbeat_s=0.1, **policy)
        try:
            fleet_cells = _run_cells(fleet, cells)
            assert _canonical(fleet.results_payload()) == \
                _canonical(_payload(serial))
            racefree = {(r["algorithm"], r["variant"])
                        for r in _payload(serial)["results"]}
            assert {("cc", "racefree"), ("mst", "racefree")} <= racefree

            def memo(study):
                return {key: (f.variant, f.reason, f.message, f.attempts)
                        for key, f in study._failures.items()}
            assert memo(fleet.study) == memo(serial)
            assert [c.describe() for c in fleet_cells[:2]] == \
                [c.describe() for c in serial_cells[:2]]
        finally:
            fleet.shutdown()

    def test_memo_serves_repeat_submission_without_execution(self):
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1)
        try:
            first = _run_cells(fleet)
            executed = fleet.study.cells_executed
            again = _run_cells(fleet)
            assert fleet.study.cells_executed == executed
            for ours, theirs in zip(again, first):
                assert ours.speedup == theirs.speedup
        finally:
            fleet.shutdown()

    def test_a_retried_cell_reaches_the_ledger_and_the_store(
            self, tmp_path):
        """A cell that failed once and then succeeds is folded into the
        ledger, published once and then served from the memo (the
        ledger used to keep the failure and drop the retry's records)."""
        key = CellKey("cc", "internet", "titanv")
        fleet = FleetExecutor(workers=1, reps=1, heartbeat_s=0.1,
                              checkpoint=tmp_path / "store")
        try:
            failed = fleet.submit(key, 1e-9).result(timeout=60)
            assert failed.reason == "timeout"
            retried = fleet.submit(key, None).result(timeout=60)
            assert retried.speedup > 0
            results = fleet.results_payload()["results"]
            assert sorted(r["variant"] for r in results) == \
                ["baseline", "racefree"]
            assert not fleet.study._failures
            assert fleet.study.store.status()["publishes"] == 1
            executed = fleet.study.cells_executed
            again = fleet.submit(key, None).result(timeout=60)
            assert again.speedup == retried.speedup
            assert fleet.study.cells_executed == executed
        finally:
            fleet.shutdown()


_TASK_RECORDS = parallel._task_records


def _failing_task_records(study, task):
    """``_task_records`` raising in the worker for every mis cell."""
    if task.algorithm == "mis":
        raise RuntimeError("harness fault")
    return _TASK_RECORDS(study, task)


# ----------------------------------------------------------------------
# Failover: kills, redispatch, and slot eviction
# ----------------------------------------------------------------------
class TestFleetFailover:
    def test_killed_workers_redispatch_each_cell_at_most_once(self):
        plan = HostFaultPlan.parse("kill=1.0", seed=3,
                                   disrupt_generations=1)
        with hostfaults.installed(plan):
            fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1)
            try:
                cells = _run_cells(fleet)
                assert all(hasattr(c, "speedup") for c in cells)
                status = fleet.fleet_status()
                assert status["respawns"] >= 1
                assert status["redispatches"] >= 1
                # each lost cell executed exactly once on a survivor
                assert fleet.study.cells_executed == 2 * len(CELLS)
            finally:
                fleet.shutdown()

    def test_restart_storm_evicts_flapping_slot_but_serves(self):
        # a worker SIGKILLed every time it comes back is evicted after
        # flap_threshold deaths in a row: its sibling keeps serving,
        # and the fleet reports itself degraded instead of looping
        with telemetry.session() as (registry, _spans):
            self._restart_storm()
            assert registry.get("repro_fleet_evictions_total").value() == 1
            # a slot is not a cell: the per-cell breakers saw nothing
            assert registry.get("repro_service_breaker_events_total") \
                is None

    def _restart_storm(self):
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.05,
                              flap_threshold=2)
        try:
            for kill in range(2):
                status = fleet.fleet_status()["workers"][0]
                assert status["pid"] is not None
                generation = status["generation"]
                os.kill(status["pid"], signal.SIGKILL)
                if kill == 0:
                    _wait_for(
                        lambda: (fleet.fleet_status()["workers"][0]
                                 ["generation"]) > generation,
                        what="slot 0 respawn")
                else:
                    _wait_for(
                        lambda: (fleet.fleet_status()["workers"][0]
                                 ["state"]) == "evicted",
                        what="slot 0 eviction")
            status = fleet.fleet_status()
            assert status["evictions"] == 1
            assert fleet.fleet_degraded is True
            # the surviving sibling still executes the whole grid
            cells = _run_cells(fleet)
            assert all(hasattr(c, "speedup") for c in cells)
            assert fleet.study.cells_executed == 2 * len(CELLS)
        finally:
            fleet.shutdown()

    def test_lookup_and_merge_errors_fail_cells_not_the_fleet(
            self, monkeypatch):
        """A store lookup that raises in ``submit`` and a merge that
        raises in the supervisor thread each fail their own cell: the
        merge order moves on, later cells resolve, the supervisor
        lives."""
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1)
        study = fleet.study
        lookup, merge = study._stored_records, study._merge_parallel_record
        merge_raised = []

        def failing_lookup(algorithm, graph_or_name, device):
            if algorithm == "cc":
                raise RuntimeError("store lookup failed")
            return lookup(algorithm, graph_or_name, device)

        def failing_merge(record):
            if not merge_raised:
                merge_raised.append(record)
                raise ValueError("merge failed")
            return merge(record)

        monkeypatch.setattr(study, "_stored_records", failing_lookup)
        monkeypatch.setattr(study, "_merge_parallel_record", failing_merge)
        try:
            looked_up = fleet.submit(CellKey("cc", "internet", "titanv"),
                                     300.0)
            merged = fleet.submit(CellKey("mis", "internet", "titanv"),
                                  300.0)
            later = fleet.submit(CellKey("mis", "rmat16.sym", "titanv"),
                                 300.0)
            assert looked_up.result(timeout=60).reason == "error"
            failed = merged.result(timeout=60)
            assert failed.reason == "error"
            assert "merge failed" in failed.message
            assert hasattr(later.result(timeout=15), "speedup")
            assert merge_raised
            assert fleet.fleet._supervisor.is_alive()
        finally:
            fleet.shutdown()

    def test_a_harness_bug_fails_its_cell_and_kills_no_worker(
            self, monkeypatch):
        """A cell whose worker raises is answered like the serial
        executor's: the scheduler's ``internal`` record, naming the
        cell.  The worker survives it, so nothing is respawned or
        redispatched, and the other cell completes."""
        monkeypatch.setattr(parallel, "_task_records",
                            _failing_task_records)
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1)
        scheduler = CellScheduler(fleet)

        async def go():
            return await asyncio.gather(
                *(scheduler.request_cell(key) for key in CELLS))

        try:
            good, bad = asyncio.run(go())
            assert good["status"] == "ok"
            assert bad["reason"] == "internal"
            assert "mis/internet/titanv" in bad["message"]
            status = fleet.fleet_status()
            assert status["respawns"] == 0
            assert status["redispatches"] == 0
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# The content-addressed shared result store
# ----------------------------------------------------------------------
def _records() -> list[dict]:
    return [{"kind": "result", "algorithm": "cc", "input": "internet",
             "device": "titanv", "variant": variant,
             "runtimes_ms": [1.5]} for variant in ("baseline",
                                                   "racefree")]


class TestResultStore(LadderCases):
    """The store's own checks; the ladder's cases come with
    :class:`~tests.durable_ladder.LadderCases`."""

    adapter = StoreAdapter

    def test_publish_lookup_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store", reps=1, scale=1.0)
        store.publish("cc", "internet", "titanv", _records())
        assert store.lookup("cc", "internet", "titanv") == (_records(), None)
        # a cold replica sees the published record from disk
        other = ResultStore(tmp_path / "store", reps=1, scale=1.0)
        assert other.lookup("cc", "internet", "titanv") == (_records(), None)

    def test_policy_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store", reps=1, scale=1.0)
        store.publish("cc", "internet", "titanv", _records())
        other = ResultStore(tmp_path / "store", reps=3, scale=1.0)
        assert other.lookup("cc", "internet", "titanv") is None

    def test_disk_failure_sticky_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "store", reps=1, scale=1.0)
        for i in range(3):
            store.publish("cc", "internet", f"dev{i}", _records())
        assert store.degraded is True
        # a degraded store touches the disk no more: lookups miss
        assert store.lookup("cc", "internet", "dev0") is None
        status = store.status()
        assert status["degraded"] is True
        assert status["disk_errors"] >= 3

        # what a checkpointed study finished lives on in its memo
        study = Study(reps=1, checkpoint=blocker / "store")
        first = study.sweep("titanv", ["cc", "mis"], ["internet"])
        assert study.store.disk_errors == 2
        executed = study.cells_executed
        again = study.sweep("titanv", ["cc", "mis"], ["internet"])
        assert study.cells_executed == executed
        assert [c.speedup for c in again.cells] == \
            [c.speedup for c in first.cells]

    def test_fault_policy_is_part_of_the_address(self, tmp_path):
        plan = FaultPlan.parse("stall=0.5", seed=3)
        store = ResultStore(tmp_path, reps=1, scale=1.0, faults=plan)
        clean = ResultStore(tmp_path, reps=1, scale=1.0)
        assert store.digest("cc", "internet", "titanv") != \
            clean.digest("cc", "internet", "titanv")
        # under a plan, retries reseed repetitions: another address
        retried = ResultStore(tmp_path, reps=1, scale=1.0, faults=plan,
                              retries=2)
        assert retried.digest("cc", "internet", "titanv") != \
            store.digest("cc", "internet", "titanv")
        # without one they change nothing
        assert ResultStore(tmp_path, reps=1, scale=1.0, retries=2).digest(
            "cc", "internet", "titanv") == \
            clean.digest("cc", "internet", "titanv")


class TestFleetStore:
    def test_corrupted_store_record_recomputed_byte_identical(
            self, tmp_path):
        store_dir = tmp_path / "store"
        first = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1,
                              checkpoint=store_dir)
        try:
            _run_cells(first)
            baseline = _canonical(first.results_payload())
        finally:
            first.shutdown()
        published = sorted(store_dir.glob("cell-*.json"))
        assert len(published) == len(CELLS)
        published[0].write_text(published[0].read_text()[:-7])

        second = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1,
                               checkpoint=store_dir)
        try:
            _run_cells(second)
            assert _canonical(second.results_payload()) == baseline
            status = second.study.store.status()
            assert status["quarantined"] == 1
            assert status["hits"] == len(CELLS) - 1
            # only the quarantined cell was recomputed
            assert second.study.cells_executed == 2
        finally:
            second.shutdown()


    def test_a_contradicted_stored_record_fails_cells_not_the_fleet(
            self, tmp_path):
        """A stored record carrying another graph's fingerprint is
        served while nothing contradicts it; a worker's build of the
        input then does, and the cell fails where the serial sweep
        raises.  The supervisor keeps merging."""
        store_dir = tmp_path / "store"
        Study(reps=1, checkpoint=store_dir).sweep(
            "titanv", ["cc"], ["internet"])
        (path,) = store_dir.glob("cell-*.json")
        restamp(path, graph_fp="other")
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1,
                              checkpoint=store_dir)
        try:
            stored, failed, other = _run_cells(fleet, (
                CellKey("cc", "internet", "titanv"),
                CellKey("mis", "internet", "titanv"),
                CellKey("mis", "rmat16.sym", "titanv")))
            assert hasattr(stored, "speedup")
            assert failed.reason == "error"
            assert "already used" in failed.message
            assert hasattr(other, "speedup")
        finally:
            fleet.shutdown()

    def test_a_resolved_cell_is_already_durable(self, tmp_path):
        store_dir = tmp_path / "store"
        fleet = FleetExecutor(workers=2, reps=1, heartbeat_s=0.1,
                              checkpoint=store_dir)
        store = fleet.study.store
        try:
            for n, key in enumerate(CELLS, start=1):
                cell = fleet.submit(key, 300.0).result(timeout=60)
                path = store._path(store.digest(
                    key.algorithm, key.input_name, key.device))
                record = json.loads(path.read_text())
                assert [r["variant"] for r in record["records"]] == \
                    ["baseline", "racefree"]
                assert store.publishes == n
                assert not list(store_dir.glob("*.tmp"))
                assert hasattr(cell, "speedup")
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# Faulted records never answer a clean lookup
# ----------------------------------------------------------------------
FAULT_CELLS = tuple(CellKey(a, "internet", "titanv")
                    for a in ("cc", "gc", "mis", "mst"))


def _fleet_service(store_dir, faults):
    """A two-worker service study (no listener) over ``store_dir``,
    run over :data:`FAULT_CELLS`; returns its payload and executions."""
    service = SweepService(ServiceConfig(
        port=0, reps=2, scale=0.25, retries=0, workers=2,
        store_dir=str(store_dir), faults=faults, fleet_heartbeat_s=0.1))
    try:
        cells = _run_cells(service.executor, FAULT_CELLS, timeout=120)
        assert all(hasattr(c, "speedup") for c in cells)
        return (_canonical(service.executor.results_payload()),
                service.executor.study.cells_executed)
    finally:
        service.executor.shutdown()


class TestFaultedAddresses:
    def test_faulted_records_never_answer_a_clean_lookup(self, tmp_path):
        plan = FaultPlan.parse("stall=0.5", seed=3)
        store_dir = tmp_path / "store"
        faulted, ran = _fleet_service(store_dir, plan)
        assert ran == 2 * len(FAULT_CELLS)
        assert len(list(store_dir.glob("cell-*.json"))) == len(FAULT_CELLS)
        clean, _ = _fleet_service(tmp_path / "clean", None)
        assert faulted != clean  # the plan changed the records

        # a clean study on the faulted store executes every cell and
        # gets a clean run's records
        served, ran = _fleet_service(store_dir, None)
        assert ran == 2 * len(FAULT_CELLS)
        assert served == clean
        # a study under the same plan still resumes its own records
        again, ran = _fleet_service(store_dir, plan)
        assert ran == 0
        assert again == faulted


# ----------------------------------------------------------------------
# A worker's degraded trace cache reaches the scheduler
# ----------------------------------------------------------------------
class TestWorkerCacheDegrade:
    def test_a_full_trace_disk_degrades_the_executor(self, tmp_path):
        """Every trace write of the worker fails with ENOSPC, so its
        cache sticky-degrades to memory-only: the executor reports it
        and the scheduler serves stale, while the fleet itself spent no
        respawn."""
        plan = HostFaultPlan.parse("enospc=1.0", seed=0,
                                   targets=("trace-*.json",))
        with hostfaults.installed(plan):
            fleet = FleetExecutor(
                workers=1, reps=1, heartbeat_s=0.1,
                trace_cache=TraceCache(disk_dir=tmp_path / "traces"))
        try:
            assert fleet.degraded is False
            cells = _run_cells(fleet, FAULT_CELLS)
            assert all(hasattr(c, "speedup") for c in cells)
            assert fleet.degraded is True
            assert CellScheduler(fleet).degraded_mode() is True
            assert fleet.fleet_degraded is False
        finally:
            fleet.shutdown()


# ----------------------------------------------------------------------
# Service endpoints: /readyz degradation and study events
# ----------------------------------------------------------------------
async def _fetch(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                  f"Content-Length: {len(payload)}\r\n\r\n"
                  ).encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, head, rest


def _dechunk(body: bytes) -> list[dict]:
    out = []
    i = 0
    while i < len(body):
        j = body.index(b"\r\n", i)
        size = int(body[i:j], 16)
        if size == 0:
            break
        out.append(body[j + 2:j + 2 + size])
        i = j + 2 + size + 2
    return [json.loads(line)
            for line in b"".join(out).splitlines() if line]


class TestServiceFleet:
    def test_fleet_service_end_to_end_with_readyz_fleet_block(
            self, tmp_path):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0, workers=2,
                                   store_dir=str(tmp_path / "store"),
                                   fleet_heartbeat_s=0.1)
            service = SweepService(config)
            await service.start()
            host, port = service.address
            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 200
            payload = json.loads(body)
            assert payload["ready"] is True
            assert payload["reasons"] == []
            assert len(payload["fleet"]["workers"]) == 2

            status, _head, body = await _fetch(
                host, port, "POST", "/v1/study",
                {"algorithms": ["cc", "mis"], "inputs": ["internet"],
                 "device": "titanv", "tenant": "fleet"})
            assert status == 200
            records = _dechunk(body)
            cells = [r for r in records if "cell" in r]
            assert len(cells) == 2
            assert all(r["status"] == "ok" for r in cells)
            assert records[0]["study_id"] == records[-1][
                "summary"]["study_id"]
            await service.aclose()

        asyncio.run(go())

    def test_readyz_degrades_on_eviction_and_store_degrade(
            self, tmp_path):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0, workers=2,
                                   store_dir=str(tmp_path / "store"),
                                   fleet_heartbeat_s=0.1)
            service = SweepService(config)
            await service.start()
            host, port = service.address

            # respawn budget exhausted: a slot evicted
            service.executor.fleet._slots[0].state = "evicted"
            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 503
            payload = json.loads(body)
            assert payload["ready"] is False
            assert "fleet_respawn_exhausted" in payload["reasons"]

            # a sticky-degraded store is a second, independent reason
            service.executor.study.store.degraded = True
            status, _head, body = await _fetch(host, port, "GET",
                                               "/readyz")
            assert status == 503
            assert "store_degraded" in json.loads(body)["reasons"]
            service.executor.fleet._slots[0].state = "idle"
            await service.aclose()

        asyncio.run(go())

    def test_study_events_replay_and_unknown_id(self):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0)
            service = SweepService(config)
            await service.start()
            host, port = service.address

            status, _head, _body = await _fetch(
                host, port, "GET", "/v1/study/s999999/events")
            assert status == 404

            status, _head, body = await _fetch(
                host, port, "POST", "/v1/study",
                {"algorithms": ["cc"], "inputs": ["internet"],
                 "device": "titanv", "tenant": "ev"})
            assert status == 200
            study_id = _dechunk(body)[0]["study_id"]

            status, _head, body = await _fetch(
                host, port, "GET", f"/v1/study/{study_id}/events")
            assert status == 200
            events = _dechunk(body)
            kinds = [e["event"] for e in events]
            assert kinds[0] == "cell_start"
            assert "cell_finish" in kinds
            assert kinds[-1] == "study_done"
            assert all(e["study"] == study_id for e in events)

            status, _head, _body = await _fetch(
                host, port, "POST", f"/v1/study/{study_id}/events")
            assert status == 405
            await service.aclose()

        asyncio.run(go())

    def test_live_event_subscription_sees_cells_finish(self):
        async def go():
            config = ServiceConfig(port=0, reps=1, retries=0)
            service = SweepService(config)
            await service.start()
            host, port = service.address

            async def subscribe_after_start():
                # the study id is deterministic: first study is s000001
                await asyncio.sleep(0.01)
                return await _fetch(host, port, "GET",
                                    "/v1/study/s000001/events")

            (status, _h, study_body), (ev_status, _eh, ev_body) = \
                await asyncio.gather(
                    _fetch(host, port, "POST", "/v1/study",
                           {"algorithms": ["cc"], "inputs": ["internet"],
                            "device": "titanv", "tenant": "live"}),
                    subscribe_after_start())
            assert status == 200 and ev_status == 200
            events = _dechunk(ev_body)
            assert events[-1]["event"] == "study_done"
            await service.aclose()

        asyncio.run(go())
