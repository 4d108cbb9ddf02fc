"""Chaos harness: prove the sweep stack survives host failures.

Each :class:`ChaosScenario` runs a *real* mini-sweep (the same
:class:`~repro.core.study.Study` + worker-fleet path the
paper tables use) under one injected host failure mode from
:mod:`repro.core.hostfaults`, then asserts the two invariants the
robustness layer promises:

1. **Full coverage** — every (algorithm, input, variant) cell completes
   with no recorded failures, despite torn trace files, full disks,
   SIGKILLed workers, stalled workers, or a corrupted result-store
   record.
2. **Byte-identical recovery** — ``save_results`` output equals the
   uninjected serial baseline byte for byte.  Recovery must not merely
   finish; it must change *nothing* about the science.

The scenario list covers every :class:`~repro.core.hostfaults.
HostFaultKind` (the harness refuses to report success otherwise) and
ends with a combined flagship run — worker kills + torn trace writes +
an externally corrupted store record, resumed to completion — which is
the acceptance bar for the whole robustness layer.  On top of
the per-kind scenarios, :func:`run_fleet_scenario` drills the
sweep-as-a-service layer (:mod:`repro.service`) on a two-worker fleet:
two concurrent clients under worker kills and torn trace writes must
get results byte-identical to an uninjected offline sweep with every
cell dispatched once plus its redispatches, a SIGTERM delivered
mid-stream must drain within the deadline and leave a ``--store`` a
fresh offline study resumes the whole grid from, and a second server
must quarantine and recompute an externally corrupted store record and
serve the rest of the grid from the store.

Run it via ``python -m repro chaos`` (``--quick`` for the CI-sized
variant) or :func:`run_chaos` directly; ``tools/validate_chaos.py``
wraps the flagship invariant for CI.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core import hostfaults
from repro.core.hostfaults import HostFaultKind, HostFaultPlan
from repro.core.study import Study
from repro.errors import StudyError

#: mini-sweep grid: small suite inputs, two racy algorithms — large
#: enough to need the workers and the trace cache, small enough for CI
ALGOS = ("cc", "mis")
INPUTS = ("internet", "USA-road-d.NY")
DEVICE = "titanv"


@dataclass(frozen=True)
class ChaosScenario:
    """One injected host failure mode plus the sweep shape that
    exercises it."""

    name: str
    description: str
    spec: str                          # HostFaultPlan.parse() text
    targets: tuple[str, ...] = ()
    stall_seconds: float = 0.0
    disrupt_generations: int | None = None
    jobs: int = 1
    task_deadline_s: float | None = None
    #: record traces to disk with the plan installed, then re-read them
    #: from a second study (the quarantine/degrade detection path)
    two_phase_traces: bool = False
    #: after a completed checkpointed sweep, externally corrupt one
    #: published store record and resume from the store
    corrupt_record: bool = False

    def kinds(self) -> set[HostFaultKind]:
        return {s.kind for s in HostFaultPlan.parse(self.spec).specs}


@dataclass
class ChaosOutcome:
    """Result of one scenario run."""

    scenario: str
    ok: bool
    identical: bool
    coverage: tuple[int, int]
    detail: str

    def describe(self) -> str:
        done, total = self.coverage
        status = "ok" if self.ok else "FAIL"
        ident = "identical" if self.identical else "DIVERGED"
        return (f"{status:4s} {self.scenario:20s} coverage {done}/{total} "
                f"bytes {ident}  {self.detail}")


@dataclass
class ChaosReport:
    """All scenario outcomes of one :func:`run_chaos` invocation."""

    outcomes: list[ChaosOutcome]
    kinds_covered: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def render(self) -> str:
        lines = [o.describe() for o in self.outcomes]
        lines.append(f"fault kinds covered: {', '.join(self.kinds_covered)}")
        lines.append("chaos: all scenarios recovered byte-identically"
                     if self.ok else "chaos: FAILURES above")
        return "\n".join(lines)


def scenario_suite(jobs: int = 4) -> list[ChaosScenario]:
    """The standard scenario list; covers every host fault kind."""
    return [
        ChaosScenario(
            name="torn-trace",
            description="every trace-cache write is truncated mid-write",
            spec="torn=1.0", targets=("trace-*.json",),
            two_phase_traces=True),
        ChaosScenario(
            name="bitflip-trace",
            description="one bit of every stored trace payload flips",
            spec="bitflip=1.0", targets=("trace-*.json",),
            two_phase_traces=True),
        ChaosScenario(
            name="enospc-degrade",
            description="the trace disk is full; cache degrades to "
                        "memory-only",
            spec="enospc=1.0", targets=("trace-*.json",),
            two_phase_traces=True),
        ChaosScenario(
            name="eio-degrade",
            description="the trace disk is dying; writes fail with EIO",
            spec="eio=1.0", targets=("trace-*.json",),
            two_phase_traces=True),
        ChaosScenario(
            name="worker-kill",
            description="every first-generation worker is SIGKILLed",
            spec="kill=1.0", disrupt_generations=1, jobs=jobs),
        ChaosScenario(
            name="worker-stall",
            description="first-generation workers hang past the task "
                        "deadline",
            spec="stall=1.0", stall_seconds=20.0, disrupt_generations=1,
            jobs=max(2, min(jobs, 2)), task_deadline_s=1.0),
        ChaosScenario(
            name="store-record",
            description="one published store record is torn after the "
                        "sweep; resume quarantines it and re-executes "
                        "that cell only",
            spec="torn=0.0", corrupt_record=True),
        ChaosScenario(
            name="combined",
            description="worker kills + torn trace writes + a torn store "
                        "record, resumed to completion",
            spec="kill=1.0,torn=0.4", targets=("trace-*.json",),
            disrupt_generations=1, jobs=jobs, corrupt_record=True),
    ]


def _study(reps: int, checkpoint: Path | None,
           trace_dir: Path | None,
           task_deadline_s: float | None) -> Study:
    study = Study(
        reps=reps, checkpoint=checkpoint,
        trace_cache=trace_dir if trace_dir is not None else False)
    if task_deadline_s is not None:
        study.pool_task_deadline_s = task_deadline_s
    return study


def _sweep_bytes(study: Study, out: Path, device: str,
                 algorithms: list[str], inputs: list[str],
                 jobs: int) -> tuple[bytes, tuple[int, int], int]:
    """Run one sweep, persist its results, and return
    (saved bytes, coverage, failure count)."""
    result = study.sweep(device, algorithms, inputs, jobs=jobs)
    study.save_results(out)
    return out.read_bytes(), result.coverage, len(result.failures)


def _corrupt_file(path: Path) -> None:
    """Externally damage one on-disk file (torn to half size)."""
    data = path.read_bytes()
    path.write_bytes(data[: max(1, len(data) // 2)])


def run_scenario(scenario: ChaosScenario, baseline: bytes,
                 workdir: Path, device: str, algorithms: list[str],
                 inputs: list[str], reps: int,
                 seed: int) -> ChaosOutcome:
    """Execute one scenario and check both chaos invariants."""
    root = workdir / scenario.name
    root.mkdir(parents=True, exist_ok=True)
    store_dir = root / "store"
    trace_dir = (root / "traces") if scenario.targets else None
    plan = HostFaultPlan.parse(
        scenario.spec, seed=seed, targets=scenario.targets,
        stall_seconds=scenario.stall_seconds,
        disrupt_generations=scenario.disrupt_generations)
    notes: list[str] = []

    with hostfaults.installed(plan):
        study = _study(reps, store_dir, trace_dir, scenario.task_deadline_s)
        data, coverage, failures = _sweep_bytes(
            study, root / "results.json", device, algorithms, inputs,
            scenario.jobs)
        if scenario.two_phase_traces:
            # phase 2: a fresh study re-reads the (faulted) trace disk —
            # the path where torn/flipped payloads are quarantined and a
            # failing disk trips degraded mode
            second = _study(reps, None, trace_dir,
                            scenario.task_deadline_s)
            data, coverage, failures = _sweep_bytes(
                second, root / "results.json", device, algorithms,
                inputs, scenario.jobs)
            cache = second.trace_cache
            if cache.quarantined:
                notes.append(f"quarantined={cache.quarantined}")
            if cache.degraded:
                notes.append(f"degraded after {cache.disk_errors} "
                             "disk errors")
        if scenario.corrupt_record:
            # phase 2: tear one published record, then resume from the
            # store — the record must be quarantined and only its cell
            # re-executed, merged at its place in the sweep order
            _corrupt_file(sorted(store_dir.glob("cell-*.json"))[0])
            resumed = _study(reps, store_dir, trace_dir,
                             scenario.task_deadline_s)
            data, coverage, failures = _sweep_bytes(
                resumed, root / "results.json", device, algorithms,
                inputs, scenario.jobs)
            notes.append(f"quarantined={resumed.store.quarantined} "
                         f"resumed={resumed.cells_resumed} "
                         f"reran={resumed.cells_executed}")
            if resumed.store.quarantined != 1 or resumed.cells_executed != 2:
                notes.append("EXPECTED one quarantined record and its "
                             "cell's 2 variants re-executed")

    identical = data == baseline
    done, total = coverage
    ok = (identical and failures == 0 and done == total
          and not any(n.startswith("EXPECTED") for n in notes))
    detail = "; ".join([scenario.description] + notes)
    return ChaosOutcome(scenario=scenario.name, ok=ok,
                        identical=identical, coverage=coverage,
                        detail=detail)


# ----------------------------------------------------------------------
# The sweep-as-a-service scenario
# ----------------------------------------------------------------------
def _canonical_payload(payload: dict) -> bytes:
    """Order-independent bytes of a ``save_results`` payload.

    The offline sweep persists records in memo insertion order, the
    server in request-arrival order; the byte-identity invariant is
    about the *science* (the runtimes), so both sides are canonicalized
    to a sorted, key-sorted dump before comparing.
    """
    results = sorted(
        payload.get("results", []),
        key=lambda r: (r.get("algorithm", ""), r.get("input", ""),
                       r.get("device", ""), r.get("variant", "")))
    return json.dumps({"reps": payload.get("reps"),
                       "scale": payload.get("scale"),
                       "results": results}, sort_keys=True).encode()


def _dechunk(body: bytes) -> bytes:
    """Undo HTTP chunked transfer encoding."""
    out = []
    i = 0
    while i < len(body):
        j = body.index(b"\r\n", i)
        size = int(body[i:j], 16)
        if size == 0:
            break
        out.append(body[j + 2:j + 2 + size])
        i = j + 2 + size + 2
    return b"".join(out)


def _store_handoff(store_dir: Path, device: str, algorithms: list[str],
                   inputs: list[str], reps: int,
                   notes: list[str]) -> list[str]:
    """The drain hand-off: a fresh offline study on a drained server's
    ``--store`` must serve every result of the grid, executing none."""
    loader = Study(reps=reps, checkpoint=store_dir)
    loader.sweep(device, algorithms, inputs, jobs=1)
    notes.append(f"store serves {loader.cells_resumed} results")
    want = 2 * len(algorithms) * len(inputs)
    if loader.cells_resumed != want or loader.cells_executed:
        return [f"the store served {loader.cells_resumed} of {want} "
                f"results and {loader.cells_executed} were executed"]
    return []


def run_fleet_scenario(workdir: Path, device: str,
                       algorithms: list[str], inputs: list[str],
                       reps: int, seed: int) -> ChaosOutcome:
    """Chaos-drill the multi-process worker fleet end to end.

    Phase 1 runs a two-worker fleet server under worker kills (every
    first-incarnation fleet worker dies on its first dispatched cell)
    plus torn trace writes, with a ``--store``; two concurrent clients
    must get every cell ``ok``, each lost cell must be redispatched
    exactly once (so the grid is still *executed* exactly once), the
    workers' dispatch counts less the redispatches must equal the grid
    (the clients' identical cells coalesced), and the accumulated
    results must be byte-identical to an uninjected serial offline
    sweep.  A SIGTERM delivered while a third client is
    mid-stream must drain within the deadline, and a fresh offline
    study on the store must serve the whole grid without executing.

    Phase 2 externally corrupts one published store record and starts
    a *fresh* fleet server over the same store directory: the corrupt
    record must be CRC-quarantined and recomputed, every other cell
    must be served from the store, and the results must again be
    byte-identical.
    """
    import asyncio
    import os
    import signal as _signal

    from repro.service.server import ServiceConfig, SweepService

    root = workdir / "fleet"
    root.mkdir(parents=True, exist_ok=True)
    store_dir = root / "store"
    notes: list[str] = []
    problems: list[str] = []
    n_cells = len(algorithms) * len(inputs)
    body = {"algorithms": list(algorithms), "inputs": list(inputs),
            "device": device, "deadline_s": 300}

    # the truth: an uninjected serial offline sweep of the same cells
    offline = Study(reps=reps)
    result = offline.sweep(device, algorithms, inputs, jobs=1)
    if result.failures:
        raise StudyError("fleet scenario offline baseline failed")
    baseline = _canonical_payload(
        {"reps": offline.reps, "scale": offline.scale,
         "results": offline._result_records()})

    async def client(host: str, port: int, tenant: str) -> list[dict]:
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(dict(body, tenant=tenant)).encode()
        writer.write((f"POST /v1/study HTTP/1.1\r\nHost: chaos\r\n"
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
        if not head.startswith(b"HTTP/1.1 200"):
            raise StudyError(
                f"fleet scenario: {tenant} got {head.splitlines()[0]!r}")
        return [json.loads(line)
                for line in _dechunk(rest).splitlines() if line]

    async def get_json(host: str, port: int, path: str) -> dict:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write((f"GET {path} HTTP/1.1\r\nHost: chaos\r\n"
                      "Content-Length: 0\r\n\r\n").encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        return json.loads(raw.partition(b"\r\n\r\n")[2])

    def check_clients(tag: str, *client_records: tuple[str, list[dict]]
                      ) -> int:
        covered = n_cells
        for tenant, records in client_records:
            cells = [r for r in records if "cell" in r]
            good = [r for r in cells if r.get("status") == "ok"]
            covered = min(covered, len(good))
            if len(cells) != n_cells or len(good) != n_cells:
                problems.append(
                    f"{tag}: {tenant} got {len(good)} ok of "
                    f"{len(cells)} cells, wanted {n_cells}")
        return covered

    # ---- phase 1: kills + torn traces, SIGTERM mid-drain -------------
    async def drive_injected() -> tuple[bytes, int]:
        config = ServiceConfig(
            port=0, reps=reps, retries=0, workers=2,
            store_dir=str(store_dir), trace_dir=str(root / "traces"),
            fleet_heartbeat_s=0.1, drain_deadline_s=60.0)
        service = SweepService(config)
        await service.start()
        host, port = service.address
        loop = asyncio.get_running_loop()

        records_a, records_b = await asyncio.gather(
            client(host, port, "alice"), client(host, port, "bob"))
        covered = check_clients("phase1", ("alice", records_a),
                                ("bob", records_b))
        executed = service.executor.study.cells_executed
        if executed != 2 * n_cells:
            problems.append(
                f"phase1: executed {executed} variant records, "
                f"expected {2 * n_cells} (each lost cell redispatched "
                "at most once)")
        status = service.executor.fleet_status()
        dispatched = sum(w["dispatched"] for w in status["workers"])
        notes.append(f"respawns={status['respawns']} "
                     f"redispatches={status['redispatches']} "
                     f"dispatched={dispatched}")
        if status["respawns"] < 1 or status["redispatches"] < 1:
            problems.append("phase1: the kill plan never cost a worker "
                            "(scenario exercised nothing)")
        if dispatched - status["redispatches"] != n_cells:
            # the ledger drops a duplicate record before it counts it,
            # so only the dispatches show a cell that ran twice
            problems.append(
                f"phase1: {dispatched} dispatches less "
                f"{status['redispatches']} redispatches for two clients "
                f"of a {n_cells}-cell study (coalescing broke)")
        server_payload = await get_json(host, port, "/v1/results")

        third = asyncio.create_task(client(host, port, "carol"))
        await asyncio.sleep(0.05)
        drain_started = loop.time()
        os.kill(os.getpid(), _signal.SIGTERM)
        try:
            await asyncio.wait_for(
                service.wait_drained(),
                timeout=config.drain_deadline_s + 15.0)
        except asyncio.TimeoutError:
            problems.append("phase1: drain never completed")
        drain_s = loop.time() - drain_started
        if drain_s > config.drain_deadline_s:
            problems.append(f"phase1: drain took {drain_s:.1f}s, over "
                            f"the {config.drain_deadline_s:.0f}s "
                            "deadline")
        notes.append(f"drained in {drain_s:.2f}s")
        try:
            records_c = await third
            ok_c = sum(1 for r in records_c
                       if "cell" in r and r.get("status") == "ok")
            notes.append(f"mid-drain client finished {ok_c}/{n_cells}")
        except (StudyError, ConnectionError, OSError, EOFError) as exc:
            notes.append(f"mid-drain client cut off ({exc})")
        return _canonical_payload(server_payload), covered

    plan = HostFaultPlan.parse(
        "kill=1.0,torn=0.4", seed=seed, targets=("trace-*.json",),
        disrupt_generations=1)
    with hostfaults.installed(plan):
        server_bytes, covered = asyncio.run(drive_injected())
    if server_bytes != baseline:
        problems.append("phase1: fleet results diverge from the "
                        "offline sweep")
    problems.extend(f"phase1: {p}" for p in _store_handoff(
        store_dir, device, algorithms, inputs, reps, notes))

    # ---- phase 2: corrupt one store record, recover from the rest ----
    published = sorted(store_dir.glob("cell-*.json"))
    if len(published) != n_cells:
        problems.append(f"phase2: store holds {len(published)} records "
                        f"for a {n_cells}-cell grid")
    if published:
        _corrupt_file(published[0])

    async def drive_recovery() -> bytes:
        config = ServiceConfig(
            port=0, reps=reps, retries=0, workers=2,
            store_dir=str(store_dir), fleet_heartbeat_s=0.1,
            drain_deadline_s=60.0)
        service = SweepService(config)
        await service.start()
        host, port = service.address
        records = await client(host, port, "dana")
        check_clients("phase2", ("dana", records))
        store = service.executor.study.store
        notes.append(f"store hits={store.hits} "
                     f"quarantined={store.quarantined}")
        if store.quarantined < 1:
            problems.append("phase2: the corrupt record was never "
                            "quarantined")
        if store.hits < n_cells - 1:
            problems.append(
                f"phase2: only {store.hits} store hits for "
                f"{n_cells - 1} intact records")
        executed = service.executor.study.cells_executed
        if executed > 2:
            problems.append(
                f"phase2: recomputed {executed} variant records; only "
                "the corrupt cell should have run")
        corrupt = list(store_dir.glob("*.corrupt"))
        if not corrupt:
            problems.append("phase2: no *.corrupt quarantine file")
        server_payload = await get_json(host, port, "/v1/results")
        await service.aclose()
        return _canonical_payload(server_payload)

    recovered_bytes = asyncio.run(drive_recovery())
    if recovered_bytes != baseline:
        problems.append("phase2: recovered results diverge from the "
                        "offline sweep")

    identical = (server_bytes == baseline
                 and recovered_bytes == baseline)
    detail = "; ".join(
        ["2-worker fleet under worker kills + torn traces, then store "
         "corruption recovery"] + notes + problems)
    return ChaosOutcome(scenario="fleet", ok=not problems and identical,
                        identical=identical, coverage=(covered, n_cells),
                        detail=detail)


def run_chaos(device: str = DEVICE, inputs: list[str] | None = None,
              reps: int = 2, jobs: int = 4, seed: int = 0,
              quick: bool = False,
              workdir: str | Path | None = None) -> ChaosReport:
    """Run the full chaos suite and return a :class:`ChaosReport`.

    ``quick`` shrinks the grid (one input, one repetition) for CI; the
    scenario list — and therefore the fault kinds exercised — is the
    same in both modes.  The harness self-checks that the suite covers
    every :class:`~repro.core.hostfaults.HostFaultKind` so a future
    kind cannot silently ship untested.
    """
    algorithms = list(ALGOS)
    if inputs is None:
        inputs = list(INPUTS[:1] if quick else INPUTS)
    if quick:
        reps = 1
    workdir = Path(workdir) if workdir is not None else Path(
        tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)

    scenarios = scenario_suite(jobs=jobs)
    covered = set()
    for s in scenarios:
        covered |= s.kinds()
    missing = set(HostFaultKind) - covered
    if missing:
        raise StudyError(
            "chaos suite does not cover host fault kind(s): "
            + ", ".join(sorted(k.value for k in missing)))

    # the truth the injected runs must reproduce byte for byte: an
    # uninjected, serial, cache-less sweep
    base_study = _study(reps, None, None, None)
    baseline, coverage, failures = _sweep_bytes(
        base_study, workdir / "baseline.json", device, algorithms,
        inputs, jobs=1)
    if failures or coverage[0] != coverage[1]:
        raise StudyError(
            "chaos baseline sweep failed without any injection — fix "
            "the sweep before measuring its resilience")

    outcomes = [
        run_scenario(s, baseline, workdir, device, algorithms, inputs,
                     reps, seed)
        for s in scenarios
    ]
    outcomes.append(run_fleet_scenario(
        workdir, device, algorithms, inputs, reps, seed))
    return ChaosReport(
        outcomes=outcomes,
        kinds_covered=tuple(sorted(k.value for k in covered)))
