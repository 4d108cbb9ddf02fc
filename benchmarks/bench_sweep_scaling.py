"""Sweep-scaling benchmark: the old engine vs trace replay vs parallel.

Runs the full undirected sweep (every device x input x algorithm x
variant, ``REPRO_REPS`` repetitions) three ways:

* **serial** — ``Study(trace_cache=False)``: the pre-replay engine,
  every repetition re-executes the vectorized algorithm.
* **replay** — the default engine: the functional execution is recorded
  once per staleness class and re-priced per device/repetition.
* **parallel** — replay plus ``jobs`` workers sharing one on-disk
  trace directory.
* **telemetry** — replay with the metric registry and span recorder
  enabled, measuring observability overhead (the acceptance target is
  under 5% over replay).

All modes produce bit-identical cells (asserted), so the wall-clock
ratios are pure engine speedup.  Results go to ``BENCH_sweep.json`` at
the repo root: one record per mode with seconds, cell count, and
speedup over serial, plus the measured ``telemetry_overhead``.

Run directly for the full measurement (the acceptance gate is
parallel >= 3x serial)::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py

or ``--smoke`` (also the pytest entry point and the CI job) for a
3-input, 1-rep equality check that still exercises all three modes.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import JOBS, REPS, SCALE, UNDIRECTED_ALGOS

from repro import Study, telemetry
from repro.gpu.device import DEVICE_ORDER
from repro.graphs.suite import load_suite_graph, suite_names

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_sweep.json"


def _prewarm(inputs: list[str]) -> None:
    """Build every input once up front so graph generation (shared by
    all modes via the process-wide suite cache, and inherited by forked
    workers) is excluded from the engine timings."""
    for name in inputs:
        load_suite_graph(name, scale=SCALE)


def _run_sweep(reps: int, inputs: list[str], jobs: int,
               trace_cache) -> tuple[list, float]:
    """One full multi-device sweep under one engine configuration."""
    study = Study(reps=reps, scale=SCALE, trace_cache=trace_cache, jobs=1)
    start = time.perf_counter()
    cells = []
    for dev in DEVICE_ORDER:
        cells += study.speedup_table(dev, UNDIRECTED_ALGOS, inputs,
                                     jobs=jobs)
    return cells, time.perf_counter() - start


def _cells_equal(a: list, b: list) -> bool:
    return [(c.algorithm, c.input_name, c.device_key, c.baseline_ms,
             c.racefree_ms) for c in a] == \
           [(c.algorithm, c.input_name, c.device_key, c.baseline_ms,
             c.racefree_ms) for c in b]


def run_benchmark(reps: int, inputs: list[str], jobs: int,
                  result_path: Path | None = RESULT_PATH) -> dict:
    _prewarm(inputs)
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as trace_dir:
        modes = [
            ("serial", dict(jobs=1, trace_cache=False)),
            ("replay", dict(jobs=1, trace_cache=True)),
            ("parallel", dict(jobs=jobs, trace_cache=trace_dir)),
            ("telemetry", dict(jobs=1, trace_cache=True)),
        ]
        records = []
        baseline_cells = None
        baseline_s = None
        for mode, kwargs in modes:
            if mode == "telemetry":
                with telemetry.session():
                    cells, seconds = _run_sweep(reps, inputs, **kwargs)
            else:
                cells, seconds = _run_sweep(reps, inputs, **kwargs)
            if baseline_cells is None:
                baseline_cells, baseline_s = cells, seconds
            elif not _cells_equal(cells, baseline_cells):
                raise AssertionError(
                    f"{mode} sweep diverged from serial results")
            records.append({
                "mode": mode,
                "seconds": round(seconds, 4),
                "cells": len(cells),
                "speedup_vs_serial": round(baseline_s / seconds, 3),
            })
            print(f"{mode:9s} {seconds:8.2f}s  "
                  f"{records[-1]['speedup_vs_serial']:6.2f}x  "
                  f"({len(cells)} cells)")
    replay_s = next(m["seconds"] for m in records if m["mode"] == "replay")
    telemetry_s = next(m["seconds"] for m in records
                       if m["mode"] == "telemetry")
    overhead = telemetry_s / replay_s - 1.0
    print(f"telemetry overhead vs replay: {overhead:+.2%}")
    payload = {
        "bench": "sweep_scaling",
        "reps": reps,
        "scale": SCALE,
        "jobs": jobs,
        "devices": list(DEVICE_ORDER),
        "inputs": inputs,
        "modes": records,
        "telemetry_overhead": round(overhead, 4),
    }
    if result_path is not None:
        result_path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {result_path}")
    return payload


def test_sweep_scaling_smoke():
    """CI smoke: all three engines agree on a small sweep."""
    payload = run_benchmark(reps=1,
                            inputs=suite_names(directed=False)[:3],
                            jobs=2, result_path=None)
    assert [m["mode"] for m in payload["modes"]] == \
        ["serial", "replay", "parallel", "telemetry"]
    assert all(m["cells"] == 3 * len(UNDIRECTED_ALGOS) * len(DEVICE_ORDER)
               for m in payload["modes"])
    assert "telemetry_overhead" in payload


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="3 inputs, 1 rep: equality check only")
    parser.add_argument("--jobs", type=int, default=max(JOBS, 4),
                        help="workers for the parallel mode (default 4)")
    args = parser.parse_args(argv)
    if args.smoke:
        run_benchmark(reps=1, inputs=suite_names(directed=False)[:3],
                      jobs=args.jobs, result_path=None)
        return 0
    payload = run_benchmark(reps=REPS,
                            inputs=suite_names(directed=False),
                            jobs=args.jobs)
    parallel = next(m for m in payload["modes"]
                    if m["mode"] == "parallel")["speedup_vs_serial"]
    print(f"parallel speedup over the old serial engine: {parallel:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
