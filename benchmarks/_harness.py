"""Shared infrastructure for the benchmark harness.

Every table/figure of the paper's evaluation section has one module
here.  All modules share a single memoized :class:`repro.Study`, so the
figure and correlation benches reuse the table benches' runs.

Environment knobs:

* ``REPRO_REPS``  — repetitions per configuration (default 3; the paper
  uses 9 — set ``REPRO_REPS=9`` to match its protocol exactly).
* ``REPRO_SCALE`` — input scale factor (default 1.0 = the suite's
  standard ~1/256-of-paper sizes).
* ``REPRO_RETRIES`` — extra attempts per cell after a transient kernel
  fault (default 1; relevant only when something actually fails).
* ``REPRO_CHECKPOINT`` — result-store directory for the sweep
  checkpoint: every finished cell is published there and served from
  it by later sessions, so an interrupted bench session resumes instead
  of recomputing (unset = no checkpointing).
* ``REPRO_TRACE_CACHE`` — directory for the on-disk trace cache
  (default ``benchmarks/output/trace_cache``).  Traces recorded by the
  table benches are re-priced — not re-executed — by the figure and
  correlation benches, and survive across bench sessions; point several
  sessions at the same directory to share recordings.
* ``REPRO_JOBS`` — worker processes for the shared study's sweeps
  (default 1 = serial).  Parallel runs are bit-identical to serial.
* ``REPRO_TELEMETRY`` — path for a telemetry JSONL export.  When set,
  the metric registry and span recorder are enabled for the whole bench
  session and written to the named file at interpreter exit (unset =
  telemetry off, the zero-overhead default).

The harness runs on the resilient study (same results, memoized and
bit-identical when nothing fails), so one bad cell cannot take down a
whole bench session.  Each bench prints the regenerated rows and writes
them to ``benchmarks/output/`` as markdown + CSV, mirroring the
artifact's ``output/`` directory.
"""

from __future__ import annotations

import os
from pathlib import Path

REPS = int(os.environ.get("REPRO_REPS", "3"))
SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))
RETRIES = int(os.environ.get("REPRO_RETRIES", "1"))
CHECKPOINT = os.environ.get("REPRO_CHECKPOINT") or None

#: the four algorithms of Tables IV-VII, in the paper's column order
UNDIRECTED_ALGOS = ["cc", "gc", "mis", "mst"]

OUTPUT_DIR = Path(__file__).parent / "output"

TRACE_CACHE = os.environ.get(
    "REPRO_TRACE_CACHE", str(OUTPUT_DIR / "trace_cache"))
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

TELEMETRY = os.environ.get("REPRO_TELEMETRY") or None
if TELEMETRY:
    import atexit

    from repro import telemetry as _telemetry
    from repro.telemetry.export import write_jsonl as _write_jsonl

    _registry, _spans = _telemetry.enable()

    @atexit.register
    def _export_bench_telemetry() -> None:
        _write_jsonl(TELEMETRY, _registry, _spans)
        print(f"telemetry written to {TELEMETRY}")


def save_output(name: str, text: str) -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / name).write_text(text + "\n")


def emit(name: str, text: str) -> None:
    """Print the regenerated rows and persist them."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    slug = "".join(c if c.isalnum() or c in "._-" else "_"
                   for c in name.lower().replace(" ", "_"))
    save_output(slug.strip("_") + ".md", text)
