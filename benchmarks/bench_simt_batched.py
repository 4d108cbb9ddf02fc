"""SIMT tier benchmark: the scalar interpreter vs the batched tier.

Runs each SIMT algorithm on the suite's ``internet`` analog at scales
1-4 under both execution tiers (:mod:`repro.gpu.batch` off and on),
asserts the runs are **bit-identical** — same outputs, same access-event
stream — and records the wall-clock speedup.  Results go to
``BENCH_simt.json`` at the repo root: one record per (algorithm, scale)
cell plus the flagship large-scale speedup.

The acceptance target is a >= 10x speedup on at least one ``scale >= 4``
cell (MST is the flagship: long CAS-heavy kernels with wide 64-bit
elements, exactly the shape the warp-wide numpy dispatch amortizes
best).

Scale notes: GC is absent from the grid — the SIMT-level GC keeps
possible colors in one 32-bit bitset, which even the scale-1 suite
analog's max degree overflows (the perf level handles those sizes; the
batched-tier GC bit-identity is pinned on tiny graphs by
``tests/test_batched_equivalence.py``).

Each run picks its tier with ``SimtExecutor(batch=...)``, so one bench
session measures both tiers.

Run directly for the full measurement::

    PYTHONPATH=src python benchmarks/bench_simt_batched.py

or ``--smoke`` (also the pytest entry point and the CI job) for a
scale-1 equality check that still measures both tiers.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms import cc, mis, mst
from repro.core.variants import Variant
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor
from repro.graphs.suite import load_suite_graph

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_simt.json"
INPUT = "internet"

#: (algorithm key, runner, scales) — the grid of measured cells
CASES = [
    ("cc", lambda g, ex: cc.run_simt(g, Variant.RACE_FREE, executor=ex),
     (1, 2, 4)),
    ("mis", lambda g, ex: mis.run_simt(g, Variant.RACE_FREE, executor=ex),
     (1, 2)),
    ("mst", lambda g, ex: mst.run_simt(g.with_random_weights(1),
                                       Variant.RACE_FREE, executor=ex),
     (1, 2, 4)),
]


def _digest(events) -> str:
    """Order-sensitive digest of an access-event stream.

    Exact list equality would require holding both tiers' streams in
    memory at once; at scale 4 that is gigabytes of live NamedTuples
    polluting the second run's wall-clock.  Hashing each event (tuple
    hash: stable within one process) into a running SHA-256 lets the
    stream be freed before the next timed run.  Scale-1 cells (and the
    CI smoke gate) still compare the full streams exactly.
    """
    import hashlib
    import struct

    h = hashlib.sha256()
    pack = struct.Struct("<q").pack
    for e in events:
        h.update(pack(hash(e)))
    return h.hexdigest()


def _measure(runner, graph, batch: bool, exact: bool):
    """One timed run on a fresh executor.

    Returns ``(seconds, out, evidence)`` where evidence is the full
    event list (``exact``) or its digest; the executor is dropped (and
    its events freed) before returning so the next run starts clean.
    """
    import gc as _gc

    _gc.collect()
    ex = SimtExecutor(GlobalMemory(), batch=batch)
    start = time.perf_counter()
    out, _ = runner(graph, ex)
    seconds = time.perf_counter() - start
    if batch and ex.batch_stats.batched_launches == 0:
        raise AssertionError("batched tier never engaged")
    evidence = ex.events if exact else _digest(ex.events)
    return seconds, np.asarray(out), evidence


def run_benchmark(scales_cap: int,
                  result_path: Path | None = RESULT_PATH) -> dict:
    records = []
    for algo, runner, scales in CASES:
        for scale in scales:
            if scale > scales_cap:
                continue
            graph = load_suite_graph(INPUT, scale)
            exact = scale <= 1
            t_i, out_i, ev_i = _measure(runner, graph, batch=False,
                                        exact=exact)
            t_b, out_b, ev_b = _measure(runner, graph, batch=True,
                                        exact=exact)
            if not np.array_equal(out_i, out_b):
                raise AssertionError(f"{algo}@{scale}: outputs differ")
            if ev_i != ev_b:
                raise AssertionError(f"{algo}@{scale}: event streams differ")
            speedup = t_i / t_b
            records.append({
                "algorithm": algo,
                "input": INPUT,
                "scale": scale,
                "interp_s": round(t_i, 4),
                "batched_s": round(t_b, 4),
                "speedup": round(speedup, 2),
                "identical": True,
            })
            print(f"{algo:4s} scale {scale}: interp {t_i:8.2f}s  "
                  f"batched {t_b:8.2f}s  {speedup:6.2f}x  (bit-identical)")
    flagship = max((r for r in records if r["scale"] >= 4),
                   key=lambda r: r["speedup"], default=None)
    payload = {
        "bench": "simt_batched",
        "input": INPUT,
        "cells": records,
        "flagship": flagship,
    }
    if result_path is not None:
        result_path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {result_path}")
    return payload


def test_simt_batched_smoke():
    """CI smoke: both tiers agree on every scale-1 cell."""
    payload = run_benchmark(scales_cap=1, result_path=None)
    assert len(payload["cells"]) == len(CASES)
    assert all(r["identical"] for r in payload["cells"])


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="scale-1 cells only: equality check")
    args = parser.parse_args(argv)
    if args.smoke:
        run_benchmark(scales_cap=1, result_path=None)
        return 0
    payload = run_benchmark(scales_cap=4)
    flagship = payload["flagship"]
    if flagship is None or flagship["speedup"] < 10.0:
        print(f"FAIL: no scale>=4 cell reached 10x (best: {flagship})")
        return 1
    print(f"flagship: {flagship['algorithm']} scale {flagship['scale']} "
          f"= {flagship['speedup']:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
