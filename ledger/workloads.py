"""One iteration of each workload, run in a fresh interpreter.

``iteration.py`` imports this module before it reads its set-up CPU
time, so the imports here are part of the measured set-up.  Each
function returns a dict with the timed region's wall and CPU seconds
(``TimedRegion``), the per-study latencies and ``attempted``/``failed``
operation counts with the reasons for any failure; :func:`run` adds
the set-up time and the per-layer metrics of traced iterations.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

# the service check is the one the CI service gate makes
sys.path.insert(0, str(HERE.parent / "tools"))
from validate_service import _canonical, _dechunk  # noqa: E402


def _load_reference(name: str) -> dict:
    return json.loads((REFERENCE / name).read_text())


class Outcome:
    """Operations attempted and failed in one iteration."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def own_cpu_s() -> float:
    """CPU seconds of this process and of every child it has waited
    for (a sweep's pool workers are joined when their pool ends)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class TimedRegion:
    """Wall and CPU seconds of a workload's timed region, piece by
    piece.

    With a :class:`common.HostProbe` (untraced iterations) the host is
    probed before the first piece and after each one, outside the
    pieces, and each piece's CPU seconds are also scaled to the
    reference host speed: divided by the mean of the readings on either
    side of it over ``common.PROBE_REF_S``.  ``cpu`` reads the CPU
    seconds a piece is charged with; ``walls`` holds each piece's wall
    seconds."""

    def __init__(self, probe: common.HostProbe | None,
                 cpu=own_cpu_s) -> None:
        self.probe = probe
        self.cpu = cpu
        self.walls: list[float] = []
        self.raw_cpu_s = 0.0
        self.ref_cpu_s = 0.0
        self.readings: list[float] = []
        if probe is not None:
            self.readings.append(probe.read())

    @contextmanager
    def piece(self):
        cpu = self.cpu()
        t0 = time.perf_counter()
        yield
        self.walls.append(time.perf_counter() - t0)
        cpu = self.cpu() - cpu
        self.raw_cpu_s += cpu
        if self.probe is not None:
            self.readings.append(self.probe.read())
            slowdown = (self.readings[-2] + self.readings[-1]) / (
                2 * common.PROBE_REF_S)
            self.ref_cpu_s += cpu / slowdown

    def as_dict(self) -> dict:
        out = {"wall_s": sum(self.walls), "raw_cpu_s": self.raw_cpu_s}
        if self.probe is not None:
            out["cpu_s"] = self.ref_cpu_s
            out["probe_s"] = self.readings
        return out


def tree_cpu_s(root: int) -> float:
    """CPU seconds of process ``root`` and its live descendants, each
    with the children it has waited for, read from ``/proc``."""
    stats: dict[int, list[str]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces: the fields follow its ')'
        stats[int(entry.name)] = text.rsplit(")", 1)[1].split()
    children: dict[int, list[int]] = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    ticks = 0
    todo = [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            # utime, stime, cutime, cstime
            ticks += sum(int(x) for x in stats[pid][11:15])
        todo.extend(children.get(pid, ()))
    return ticks / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


def sweep(workdir: Path, seed: int, probe: common.HostProbe | None, *,
          jobs: int, trace_dir: Path, checkpoint: Path | None,
          expect_no_records: bool = False) -> dict:
    """The sweep grid on all four devices through
    ``ResilientStudy.sweep``; a study, and a timed piece, is one device
    (its undirected and its SCC table)."""
    from repro.core.resilience import ResilientStudy
    from repro.telemetry.spans import get_spans

    grid = common.sweep_grid(seed)
    out = Outcome()
    spans = get_spans()
    region = TimedRegion(probe)
    with spans.span("ledger.iteration"):
        study = ResilientStudy(reps=common.REPS, trace_cache=trace_dir,
                               checkpoint=checkpoint, jobs=jobs)
        results = []
        for device in common.DEVICES:
            with region.piece():
                for algorithms, inputs in grid:
                    results.append(study.sweep(device, list(algorithms),
                                               inputs, jobs=jobs))

    for res in results:
        for cell in res.cells:
            out.check(not hasattr(cell, "reason"),
                      f"cell failed: {getattr(cell, 'reason', '')}")
    saved = workdir / "results.json"
    study.save_results(saved)
    text = saved.read_text()
    index = common.cell_index(_load_reference("cells.json"))
    expected = common.results_text(
        common.REPS, 1.0,
        common.expected_sweep_records(index, common.DEVICES, grid))
    got = common.digest(text)
    out.check(got == common.digest(expected),
              "save_results digest differs from the committed reference")
    if expect_no_records:
        out.check(study.trace_cache.recorded == 0,
                  f"warm sweep recorded {study.trace_cache.recorded} traces")
    return {**region.as_dict(), "latencies": region.walls, "digest": got,
            "trace_bytes": _dir_bytes(trace_dir), **out.as_dict()}


def sweep_cold(workdir: Path, seed: int, probe) -> dict:
    return sweep(workdir, seed, probe, jobs=common.SWEEP_JOBS,
                 trace_dir=workdir / "traces",
                 checkpoint=workdir / "sweep.ckpt")


def sweep_fill(workdir: Path, seed: int) -> dict:
    """The untimed sweep-cold pass that fills sweep-warm's traces."""
    result = sweep(workdir, seed, None, jobs=common.SWEEP_JOBS,
                   trace_dir=workdir.parent / "warm-traces",
                   checkpoint=workdir / "sweep.ckpt")
    (workdir.parent / "warm-digest.txt").write_text(result["digest"])
    return result


def sweep_warm(workdir: Path, seed: int, probe) -> dict:
    # the trace directory the untimed fill pass wrote (run.py)
    result = sweep(workdir, seed, probe, jobs=1,
                   trace_dir=workdir.parent / "warm-traces",
                   checkpoint=None, expect_no_records=True)
    cold = (workdir.parent / "warm-digest.txt").read_text().strip()
    result["attempted"] += 1
    if result["digest"] != cold:
        result["failed"] += 1
        result["errors"].append("warm digest differs from the cold pass")
    return result


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------


def repair_summary(report) -> dict:
    """The parts of a repair report the reference pins down."""
    return {
        "ok": report.ok,
        "candidates": [{"fixset": c.fixset.describe(),
                        "verdict": c.verdict,
                        "schedules_explored": c.schedules_explored}
                       for c in report.candidates],
        "ranked": [{"fixset": r.fixset.describe(),
                    "geomean_ms": r.geomean_ms} for r in report.ranked],
    }


def repair_smoke(workdir: Path, seed: int, probe) -> dict:
    """The repair targets in a seeded order; a study, and a timed
    piece, is one target."""
    from repro.repair.pipeline import repair
    from repro.telemetry.spans import get_spans

    import tracing

    reference = _load_reference("repair.json")
    out = Outcome()
    summaries = {}
    spans = get_spans()
    region = TimedRegion(probe)
    with spans.span("ledger.iteration"):
        for target in common.repair_order(seed):
            with region.piece(), spans.span("repair.target",
                                            target=target):
                report = repair(target, budget=common.REPAIR_BUDGET,
                                **common.REPAIR_OPTIONS.get(target, {}))
            summaries[target] = repair_summary(report)

    for target, summary in summaries.items():
        out.check(summary["ok"], f"repair {target} not ok")
        out.check(summary == reference[target],
                  f"repair {target} differs from the committed reference")
    for e in tracing.EXPLORATIONS:
        out.check(not e["time_capped"],
                  f"exploration stopped on the {e['max_seconds']:g}s "
                  f"wall-clock cap after {e['schedules']} schedules")
    candidates = sum(len(s["candidates"]) for s in summaries.values())
    accepted = sum(1 for s in summaries.values()
                   for c in s["candidates"] if c["verdict"] == "accepted")
    return {**region.as_dict(), "latencies": region.walls,
            "explorations": list(tracing.EXPLORATIONS),
            "counts": {"repair.candidates": candidates,
                       "repair.accepted_ratio": (accepted / candidates
                                                 if candidates else 0.0)},
            **out.as_dict()}


# ----------------------------------------------------------------------
# Serve fleet
# ----------------------------------------------------------------------


def _request(port: int, method: str, path: str, body: dict | None = None,
             timeout: float = 120.0) -> tuple[bytes, float]:
    """One HTTP/1.1 exchange read to EOF; returns (raw response,
    seconds from send to the first response byte)."""
    payload = b"" if body is None else json.dumps(body).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        sent = time.perf_counter()
        sock.sendall((f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
                      f"Content-Length: {len(payload)}\r\n\r\n"
                      ).encode() + payload)
        chunks = []
        first = None
        while True:
            data = sock.recv(65536)
            if not data:
                break
            if first is None:
                first = time.perf_counter() - sent
            chunks.append(data)
    finally:
        sock.close()
    return b"".join(chunks), first or 0.0


def _split(raw: bytes) -> tuple[int, bytes]:
    head, _, rest = raw.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    return (int(parts[1]) if len(parts) > 1 else 0), rest


def parse_prometheus(text: str) -> dict[str, float]:
    """``name{labels}`` -> value for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            samples[key] = float(value)
        except ValueError:
            continue
    return samples


def _counter(samples: dict[str, float], name: str, **labels) -> float:
    want = ",".join(f'{k}="{v}"' for k, v in labels.items())
    key = f"{name}{{{want}}}" if want else name
    return samples.get(key, 0.0)


class Server:
    """``repro serve --workers N`` as a child process."""

    def __init__(self, workdir: Path, telemetry: bool) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", str(common.SERVE_WORKERS),
               "--reps", str(common.REPS),
               "--trace-cache", str(workdir / "traces"),
               "--store", str(workdir / "store"),
               "--drain-deadline", "20"]
        if telemetry:
            cmd += ["--telemetry", str(workdir / "serve-telemetry.jsonl")]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        self.lines: list[str] = []
        banner = self.proc.stdout.readline().strip()
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _ = _split(_request(self.port, "GET", "/readyz")[0])
            if status == 200:
                return
            time.sleep(0.02)
        raise RuntimeError("server never became ready")

    def get_json(self, path: str) -> dict:
        return json.loads(_split(_request(self.port, "GET", path)[0])[1])

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=40)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        return self.proc.returncode


def serve_fleet(workdir: Path, seed: int, probe, traced: bool,
                setup_extra: list[float]) -> dict:
    """The studies of two closed-loop clients; a timed piece is one
    phase, which ends when both clients have sent their share of it."""
    out = Outcome()
    spawned = own_cpu_s()
    server = Server(workdir, telemetry=traced)
    try:
        server.wait_ready()
        setup_extra.append(own_cpu_s() - spawned
                           + tree_cpu_s(server.proc.pid))

        def fleet_cpu_s() -> float:
            # the server and its fleet are not waited for until they
            # stop, so their CPU time is read live
            return own_cpu_s() + tree_cpu_s(server.proc.pid)

        requested: set[tuple[str, str, str]] = set()

        def run_study(study: dict, stats: list) -> None:
            t_send = time.perf_counter()
            raw, ttfb = _request(server.port, "POST", "/v1/study",
                                 {**study, "deadline_s": 120})
            latency = time.perf_counter() - t_send
            status, body = _split(raw)
            records = _dechunk(body) if status == 200 else []
            cells = [r for r in records if "cell" in r]
            stats.append({"latency": latency, "ttfb": ttfb,
                          "status": status, "cells": cells})

        primer: list = []
        for study in common.priming_studies(common.SERVE_BASE,
                                            common.DEVICES):
            run_study(study, primer)
        sequences = common.study_sequence(
            seed, common.serve_fresh_cells(), common.SERVE_BASE,
            clients=common.SERVE_CLIENTS)
        per_client: list[list] = [[] for _ in sequences]

        def client(k: int, studies: list[dict]) -> None:
            for study in studies:
                run_study(study, per_client[k])

        region = TimedRegion(probe, cpu=fleet_cpu_s)
        for phase in range(common.SERVE_PHASES):
            threads = [
                threading.Thread(target=client, args=(k, common.phase_of(
                    seq, phase, common.SERVE_PHASES)))
                for k, seq in enumerate(sequences)]
            with region.piece():
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=170)

        studies = [s for stats in per_client for s in stats]
        for s in primer + studies:
            ok = out.check(s["status"] == 200,
                           f"study returned HTTP {s['status']}")
            for cell in s["cells"]:
                out.check(cell.get("status") == "ok" and not
                          cell.get("stale"), f"cell not ok: {cell}")
                c = cell["cell"]
                requested.add((c["algorithm"], c["input"], c["device"]))
            if ok and not s["cells"]:
                out.check(False, "study streamed no cells")
        out.check(len(studies) == sum(len(q) for q in sequences),
                  "a client did not finish its sequence")

        ready = server.get_json("/readyz")
        fleet = ready.get("fleet") or {}
        out.check(fleet.get("respawns", 0) == 0
                  and fleet.get("redispatches", 0) == 0,
                  f"fleet respawned or redispatched: {fleet}")
        results = server.get_json("/v1/results")
        index = common.cell_index(_load_reference("cells.json"))
        expected = {"reps": common.REPS, "scale": 1.0, "results": [
            index[(a, i, d, v)] for (a, i, d) in sorted(requested)
            for v in common.VARIANTS]}
        out.check(_canonical(results) == _canonical(expected),
                  "/v1/results differs from the offline reference")
        samples = {}
        if traced:
            raw, _ = _request(server.port, "GET", "/metrics")
            samples = parse_prometheus(_split(raw)[1].decode())
    finally:
        code = server.stop()
    out.check(code == 0, f"server exited {code} after SIGTERM")

    counts = {
        "service.ttfb_s": statistics.median(s["ttfb"] for s in studies),
        "service.cells.computed": _counter(
            samples, "repro_service_cells_total", outcome="computed"),
        "service.cells.cache_hit": _counter(
            samples, "repro_service_cells_total", outcome="cache_hit"),
        "service.cells.coalesced": _counter(
            samples, "repro_service_cells_total", outcome="coalesced"),
        "service.cells.stale": _counter(
            samples, "repro_service_cells_total", outcome="stale"),
        "service.admissions_rejected": sum(
            v for k, v in samples.items()
            if k.startswith("repro_service_admissions_total")
            and 'outcome="admitted"' not in k),
        "fleet.respawns": float(fleet.get("respawns", 0)),
        "fleet.redispatches": float(fleet.get("redispatches", 0)),
        "store.publishes": _counter(
            samples, "repro_fleet_store_events_total", event="publish"),
        "store.hits": _counter(
            samples, "repro_fleet_store_events_total", event="hit"),
    }
    latencies = [s["latency"] for s in studies]
    counts["service.study_p50_s"] = statistics.median(latencies)
    counts["service.study_p90_s"] = common.nearest_rank(latencies, 0.9)
    ttfb_total = sum(s["ttfb"] for s in studies) / len(sequences)
    layers = {"service.ttfb": ttfb_total,
              "service.stream": sum(latencies) / len(sequences) - ttfb_total}
    timed = region.as_dict()
    layers["unattributed"] = max(0.0, timed["wall_s"] - sum(layers.values()))
    return {**timed, "latencies": latencies, "counts": counts,
            "layers": layers, **out.as_dict()}


RUNNERS = {
    "sweep-cold": sweep_cold,
    "sweep-warm": sweep_warm,
    "repair-smoke": repair_smoke,
}


def run(workload: str, workdir: Path, seed: int,
        probe: common.HostProbe | None, setup_s: float) -> dict:
    """One iteration: untraced ones get a ``probe`` and report their
    times scaled to the reference host speed, traced ones fold their
    spans.  ``setup_s`` is the CPU time spent before the workload
    started; set-up is scaled by the first probe reading, which
    follows it."""
    import tracing

    traced = probe is None
    setup_extra: list[float] = []
    if workload == "serve-fleet":
        # the server and its fleet run in other processes: layer
        # numbers are client timings plus the server's counters
        result = serve_fleet(workdir, seed, probe, traced, setup_extra)
        result["layer_metrics"] = dict(result["counts"])
    else:
        if traced:
            tracing.install_spans(
                with_pool_workers=workload == "sweep-cold")
        elif workload == "repair-smoke":
            tracing.install_explore_guard()
        result = RUNNERS[workload](workdir, seed, probe)
        if traced:
            folded = common.span_metrics(tracing.recorded_spans(),
                                         result["wall_s"])
            metrics = folded["metrics"]
            metrics["trace.disk_bytes"] = result.get("trace_bytes", 0)
            metrics.update(result.get("counts", {}))
            result["layer_metrics"] = metrics
            result["layers"] = folded["layers"]
    result["raw_setup_s"] = setup_s + sum(setup_extra)
    if not traced:
        result["setup_s"] = result["raw_setup_s"] / (
            result["probe_s"][0] / common.PROBE_REF_S)
    return result
