"""Validate the sweep service end to end (the CI service gate).

Drives a real ``python -m repro serve`` subprocess the way an unlucky
deployment would:

1. starts a one-worker server (``repro serve``'s default ``--workers
   1``) with a host fault plan installed — 40% of trace-cache writes
   are torn — plus a ``--store`` and a disk trace cache;
2. submits the same study from two concurrent clients and checks that
   every cell streams back ``ok`` and that the pair coalesced onto a
   single grid execution: in ``/readyz``'s fleet block the workers'
   dispatch counts less the redispatches equal the grid's cells;
3. fetches ``/v1/results`` and asserts the accumulated raw runtimes
   are byte-identical (canonically ordered) to an uninjected, serial,
   cache-less offline sweep of the same cells run in this process;
4. sends SIGTERM while a third client is mid-stream and asserts the
   server drains within the deadline, exits 0, and leaves a store a
   fresh offline study serves the whole grid from, executing nothing;
5. (fleet smoke) repeats the drive against ``--workers 2`` with a
   ``--store`` under a plan that also kills workers: every
   first-generation fleet worker is killed, cells must fail over to
   respawned workers while each is still dispatched once plus its
   redispatches, results must stay byte-identical to the offline
   sweep, the store must hold every published cell, SIGTERM must
   still drain cleanly, and the drained store must again serve a
   fresh study.

Usage::

    PYTHONPATH=src python tools/validate_service.py [--seed S]

Exit status 0 when every invariant holds, 1 with a diagnostic.
"""

from __future__ import annotations

import argparse
import json
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ALGOS = ["cc", "mis"]
INPUTS = ["internet"]
DEVICE = "titanv"
REPS = 1


def _request(port: int, method: str, path: str,
             body: dict | None = None, timeout: float = 120.0) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        sock.sendall((f"{method} {path} HTTP/1.1\r\nHost: validate\r\n"
                      f"Content-Length: {len(payload)}\r\n\r\n"
                      ).encode() + payload)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    finally:
        sock.close()
    return b"".join(chunks)


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


def _study_records(port: int, tenant: str) -> list[dict]:
    raw = _request(port, "POST", "/v1/study",
                   {"algorithms": ALGOS, "inputs": INPUTS,
                    "device": DEVICE, "tenant": tenant,
                    "deadline_s": 300})
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1]
    if status != b"200":
        raise RuntimeError(f"{tenant}: study returned {status!r}")
    return _dechunk(rest)


def _canonical(payload: dict) -> bytes:
    results = sorted(
        payload.get("results", []),
        key=lambda r: (r.get("algorithm", ""), r.get("input", ""),
                       r.get("device", ""), r.get("variant", "")))
    return json.dumps({"reps": payload.get("reps"),
                       "scale": payload.get("scale"),
                       "results": results}, sort_keys=True).encode()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="host fault plan seed")
    parser.add_argument("--drain-deadline", type=float, default=30.0)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="repro-validate-service-"))
    store_dir = workdir / "store"
    n_cells = len(ALGOS) * len(INPUTS)

    # the truth: an uninjected serial offline sweep in this process
    from repro.core.study import Study

    offline = Study(reps=REPS)
    result = offline.sweep(DEVICE, ALGOS, INPUTS, jobs=1)
    if result.failures:
        print("FAIL: offline baseline sweep failed", file=sys.stderr)
        return 1
    baseline = _canonical({"reps": offline.reps, "scale": offline.scale,
                           "results": offline._result_records()})

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--reps", str(REPS), "--retries", "0",
         "--trace-cache", str(workdir / "traces"),
         "--store", str(store_dir),
         "--inject-host", "torn=0.4",
         "--host-targets", "trace-*.json",
         "--host-seed", str(args.seed),
         "--drain-deadline", str(args.drain_deadline)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline().strip()
        if "listening on" not in banner:
            raise RuntimeError(f"unexpected banner {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        print(f"ok   server up on port {port} "
              "(1 worker, torn writes injected)")

        # two concurrent clients, one cold study
        records: dict[str, list[dict] | Exception] = {}

        def client(tenant: str) -> None:
            try:
                records[tenant] = _study_records(port, tenant)
            except Exception as exc:  # surfaced below
                records[tenant] = exc

        threads = [threading.Thread(target=client, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for tenant in ("alice", "bob"):
            got = records.get(tenant)
            if isinstance(got, Exception) or got is None:
                print(f"FAIL: client {tenant}: {got!r}", file=sys.stderr)
                return 1
            cells = [r for r in got if "cell" in r]
            bad = [r for r in cells if r.get("status") != "ok"]
            if len(cells) != n_cells or bad:
                print(f"FAIL: {tenant} got {len(cells)} cells, "
                      f"{len(bad)} not ok: {bad}", file=sys.stderr)
                return 1
        print(f"ok   two concurrent clients, all {n_cells} cells ok")
        if _fleet_block(port, 1, n_cells, "server") is None:
            return 1

        # byte-identity against the offline sweep
        raw = _request(port, "GET", "/v1/results")
        server_payload = json.loads(raw.partition(b"\r\n\r\n")[2])
        if len(server_payload.get("results", [])) != 2 * n_cells:
            print("FAIL: /v1/results holds "
                  f"{len(server_payload.get('results', []))} variant "
                  f"records, expected {2 * n_cells} (a cell's records "
                  "are missing)", file=sys.stderr)
            return 1
        if _canonical(server_payload) != baseline:
            print("FAIL: server results diverge from the uninjected "
                  "offline sweep", file=sys.stderr)
            return 1
        print("ok   results byte-identical to the offline sweep")

        # SIGTERM mid-stream: drain within the deadline
        third: dict[str, object] = {}

        def carol() -> None:
            try:
                third["done"] = _study_records(port, "carol")
            except Exception as exc:
                third["cut_off"] = exc

        streamer = threading.Thread(target=carol)
        streamer.start()
        time.sleep(0.05)
        sent = time.monotonic()
        server.send_signal(signal.SIGTERM)
        try:
            out, err = server.communicate(
                timeout=args.drain_deadline + 15.0)
        except subprocess.TimeoutExpired:
            print("FAIL: server never exited after SIGTERM",
                  file=sys.stderr)
            return 1
        drain_s = time.monotonic() - sent
        streamer.join(timeout=10)
        if server.returncode != 0:
            print(f"FAIL: drain exited {server.returncode}; "
                  f"stderr: {err[-500:]}", file=sys.stderr)
            return 1
        if drain_s > args.drain_deadline:
            print(f"FAIL: drain took {drain_s:.1f}s, over the "
                  f"{args.drain_deadline:.0f}s deadline", file=sys.stderr)
            return 1
        if "drained cleanly" not in out:
            print(f"FAIL: missing drain banner in {out!r}",
                  file=sys.stderr)
            return 1
        print(f"ok   SIGTERM drained cleanly in {drain_s:.2f}s")

        if not _store_handoff(store_dir, n_cells, "drain"):
            return 1
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()

    rc = _fleet_smoke(workdir, baseline, n_cells, args)
    if rc:
        return rc

    print("service validation: coalescing, byte-identity, fleet "
          "failover, and SIGTERM drain hold under injected host faults")
    return 0


def _fleet_block(port: int, workers: int, n_cells: int,
                 what: str) -> dict | None:
    """``/readyz``'s fleet block if it shows ``workers`` workers that
    dispatched every cell once plus its redispatches (two clients of one
    study coalesce onto one execution per cell), else None after a FAIL
    line."""
    raw = _request(port, "GET", "/readyz")
    fleet = json.loads(raw.partition(b"\r\n\r\n")[2]).get("fleet") or {}
    if len(fleet.get("workers", [])) != workers:
        print(f"FAIL: {what} /readyz fleet block: {fleet!r}",
              file=sys.stderr)
        return None
    dispatched = sum(w["dispatched"] for w in fleet["workers"])
    redispatched = fleet["redispatches"]
    if dispatched - redispatched != n_cells:
        print(f"FAIL: {what} dispatched {dispatched} cells less "
              f"{redispatched} redispatches for two clients of a "
              f"{n_cells}-cell study (coalescing broke)", file=sys.stderr)
        return None
    print(f"ok   {what} dispatched each cell once: {dispatched} "
          f"dispatches - {redispatched} redispatches = {n_cells} cells")
    return fleet


def _store_handoff(store_dir: Path, n_cells: int, what: str) -> bool:
    """A fresh offline study on a drained server's ``--store`` must
    serve every result of the grid and execute none."""
    from repro.core.study import Study

    loader = Study(reps=REPS, checkpoint=store_dir)
    loader.sweep(DEVICE, ALGOS, INPUTS, jobs=1)
    if loader.cells_resumed != 2 * n_cells or loader.cells_executed:
        print(f"FAIL: the {what} store served {loader.cells_resumed} of "
              f"{2 * n_cells} results; {loader.cells_executed} were "
              "executed", file=sys.stderr)
        return False
    print(f"ok   {what} store serves {loader.cells_resumed} results "
          "to a fresh study, 0 executed")
    return True


def _fleet_smoke(workdir: Path, baseline: bytes, n_cells: int,
                 args) -> int:
    """Phase 5: the supervised worker fleet under worker kills and torn
    writes."""
    fleet_dir = workdir / "fleet"
    store_dir = fleet_dir / "store"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--reps", str(REPS), "--retries", "0",
         "--workers", "2", "--store", str(store_dir),
         "--trace-cache", str(fleet_dir / "traces"),
         "--inject-host", "kill=1.0,torn=0.4",
         "--host-targets", "trace-*.json",
         "--host-seed", str(args.seed),
         "--disrupt-generations", "1",
         "--drain-deadline", str(args.drain_deadline)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = server.stdout.readline().strip()
        if "listening on" not in banner:
            raise RuntimeError(f"unexpected fleet banner {banner!r}")
        port = int(banner.rsplit(":", 1)[1])
        print(f"ok   fleet server up on port {port} "
              "(2 workers, gen-0 kills injected)")

        records: dict[str, list[dict] | Exception] = {}

        def client(tenant: str) -> None:
            try:
                records[tenant] = _study_records(port, tenant)
            except Exception as exc:  # surfaced below
                records[tenant] = exc

        threads = [threading.Thread(target=client, args=(t,))
                   for t in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        for tenant in ("alice", "bob"):
            got = records.get(tenant)
            if isinstance(got, Exception) or got is None:
                print(f"FAIL: fleet client {tenant}: {got!r}",
                      file=sys.stderr)
                return 1
            cells = [r for r in got if "cell" in r]
            bad = [r for r in cells if r.get("status") != "ok"]
            if len(cells) != n_cells or bad:
                print(f"FAIL: fleet {tenant} got {len(cells)} cells, "
                      f"{len(bad)} not ok: {bad}", file=sys.stderr)
                return 1
        print(f"ok   fleet served all {n_cells} cells to both clients")

        fleet = _fleet_block(port, 2, n_cells, "fleet")
        if fleet is None:
            return 1
        if fleet.get("respawns", 0) < 1 or fleet.get(
                "redispatches", 0) < 1:
            print("FAIL: the kill plan never cost a fleet worker "
                  f"(respawns={fleet.get('respawns')}, "
                  f"redispatches={fleet.get('redispatches')})",
                  file=sys.stderr)
            return 1
        print(f"ok   failover exercised: respawns={fleet['respawns']} "
              f"redispatches={fleet['redispatches']}")

        raw = _request(port, "GET", "/v1/results")
        server_payload = json.loads(raw.partition(b"\r\n\r\n")[2])
        if _canonical(server_payload) != baseline:
            print("FAIL: fleet results diverge from the uninjected "
                  "offline sweep", file=sys.stderr)
            return 1
        print("ok   fleet results byte-identical to the offline sweep")

        published = list(store_dir.glob("cell-*.json"))
        if len(published) != n_cells:
            print(f"FAIL: store published {len(published)} records, "
                  f"expected {n_cells}", file=sys.stderr)
            return 1
        print(f"ok   store holds {len(published)} published cells")

        sent = time.monotonic()
        server.send_signal(signal.SIGTERM)
        try:
            out, err = server.communicate(
                timeout=args.drain_deadline + 15.0)
        except subprocess.TimeoutExpired:
            print("FAIL: fleet server never exited after SIGTERM",
                  file=sys.stderr)
            return 1
        drain_s = time.monotonic() - sent
        if server.returncode != 0:
            print(f"FAIL: fleet drain exited {server.returncode}; "
                  f"stderr: {err[-500:]}", file=sys.stderr)
            return 1
        if "drained cleanly" not in out:
            print(f"FAIL: missing fleet drain banner in {out!r}",
                  file=sys.stderr)
            return 1
        print(f"ok   fleet SIGTERM drained cleanly in {drain_s:.2f}s")
        if not _store_handoff(store_dir, n_cells, "fleet drain"):
            return 1
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
