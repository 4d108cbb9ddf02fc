"""Layer ledger benchmark: host time of four workloads, end to end and
per layer.

    python3 ledger/run.py --workload sweep-cold --seed 0 --seconds 25 \
        --trace 0

Run from the repository root.  Each iteration of the workload runs in
a fresh interpreter (``iteration.py``) with ``PYTHONPATH=src``;
iterations repeat while another one would end nearer to ``--seconds``
than stopping does, at least three of them (a longer workload overruns
``--seconds`` rather than report a median of fewer), and the end-to-end
metrics are medians over them.  Their times are CPU seconds of the
process tree scaled to the reference host speed by a probe run
between the timed pieces of each iteration (``common.HostProbe``);
raw wall and CPU seconds are printed beside them.  ``--trace 1``
alternates traced and untraced iterations, folds the traced ones'
spans into per-layer self time, and reports the tracing overhead from
the median wall time of each kind.

The human-readable ledger and the host fingerprint go to stderr and to
``.ledger_work/reports/``; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2
without a result when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".ledger_work"
ITERATION_TIMEOUT_S = 35.0
#: the fewest iterations a median is taken over
MIN_ITERATIONS = 3
#: never start an iteration past this many seconds into the run
HARD_STOP_S = 100.0


def run_iteration(workload: str, workdir: Path, seed: int, traced: bool
                  ) -> dict:
    """Spawn one iteration and return its result; a child that does not
    finish cleanly counts as one failed operation."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for knob in ("REPRO_TRACE_CACHE", "REPRO_JOBS", "REPRO_TELEMETRY",
                 "REPRO_ENGINE", "REPRO_SIMT_BATCH"):
        env.pop(knob, None)
    cmd = [sys.executable, str(HERE / "iteration.py"),
           "--workload", workload, "--workdir", str(workdir),
           "--seed", str(seed), "--trace", str(int(traced)),
           "--out", str(out)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    elapsed = time.monotonic() - started
    if proc.returncode != 0 or not out.exists():
        tail = (err or "").strip().splitlines()[-3:]
        return {"ok": False, "elapsed": elapsed, "attempted": 1,
                "failed": 1,
                "errors": [f"{workload} iteration exited "
                           f"{proc.returncode}: {' | '.join(tail)}"]}
    result = json.loads(out.read_text())
    result["ok"] = True
    result["elapsed"] = elapsed
    return result


def end_to_end(results: list[dict]) -> dict[str, float]:
    """Medians over iterations of every end-to-end metric."""
    return {name: statistics.median(r[name] for r in results)
            for name, _ in common.END_TO_END}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    out = {}
    for name, _, _ in common.PER_LAYER:
        values = [r["layer_metrics"][name] for r in traced
                  if name in r.get("layer_metrics", {})]
        out[name] = float(statistics.median(values)) if values else 0.0
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["traced_wall_s"] = traced_wall
    out["tracing.overhead"] = (
        traced_wall / statistics.median(r["wall_s"] for r in untraced) - 1.0
        if untraced else 0.0)
    return out


def median_layers(traced: list[dict]) -> dict[str, float]:
    keys = sorted({k for r in traced for k in r.get("layers", {})})
    return {k: statistics.median(r.get("layers", {}).get(k, 0.0)
                                 for r in traced) for k in keys}


def render(workload: str, seed: int, trace: bool, fingerprint: dict,
           results: list[dict], metrics: dict, layers: dict) -> str:
    lines = [f"layer ledger: {workload} seed={seed} trace={int(trace)}",
             "host: " + json.dumps(fingerprint, sort_keys=True)]
    for k, r in enumerate(results):
        if not r["ok"]:
            lines.append(f"  iteration {k}: FAILED {r['errors']}")
            continue
        scaled = ("" if r["traced"] else
                  f" (at reference speed: cpu {r['cpu_s']:.3f}s setup "
                  f"{r['setup_s']:.3f}s; probe "
                  f"{statistics.median(r['probe_s']) * 1e3:.1f}ms)")
        lines.append(
            f"  iteration {k}: {'traced' if r['traced'] else 'untraced'}"
            f" wall {r['wall_s']:.3f}s cpu {r['raw_cpu_s']:.3f}s"
            f" setup {r['raw_setup_s']:.3f}s{scaled} "
            f"rss {r['peak_rss_mb']:.0f}MB ops {r['attempted']} "
            f"failed {r['failed']}")
        lines.extend(f"    error: {err}" for err in r["errors"])
    measured = [r for r in results if r["ok"] and r["traced"] == trace]
    latencies = [r["latencies"] for r in measured]
    per_iteration = len(latencies[0]) if latencies else 0
    rule = ("resolved" if common.p90_is_resolved(per_iteration)
            else "the slowest study: fewer than 10 samples beyond it")
    lines.append(f"  studies per iteration: {per_iteration} (p90 {rule}); "
                 "study median "
                 f"{statistics.median(x for l in latencies for x in l):.4g}s"
                 ", median wall "
                 f"{statistics.median(r['wall_s'] for r in measured):.4g}s")
    lines.extend(f"  {name:32s} {value:.6g}"
                 for name, value in metrics.items())
    if layers:
        total = sum(layers.values())
        lines.append(f"  ledger (median traced iteration, sum "
                     f"{total:.3f}s, top layer {common.top_layer(layers)})")
        for name, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            share = secs / total if total else 0.0
            lines.append(f"    {name:24s} {secs:9.3f}s {share:6.1%}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    began = time.monotonic()
    fingerprint = common.host_fingerprint(str(ROOT))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    traced = bool(args.trace)
    results: list[dict] = []
    try:
        if args.workload == "sweep-warm":
            fill = run_iteration("sweep-fill", workdir / "fill", args.seed,
                                 False)
            if not fill["ok"] or fill["failed"]:
                print("error: the sweep-cold pass that fills sweep-warm's "
                      f"traces failed: {fill['errors']}", file=sys.stderr)
                return 1
        start = time.monotonic()
        durations: list[float] = []
        while True:
            step = 0.0
            for kind in (True, False) if traced else (False,):
                r = run_iteration(args.workload,
                                  workdir / f"iter-{len(results)}",
                                  args.seed, kind)
                r["traced"] = kind
                results.append(r)
                step += r["elapsed"]
            durations.append(step)
            spent = time.monotonic() - start
            if time.monotonic() - began > HARD_STOP_S:
                break
            if (len(durations) >= MIN_ITERATIONS and spent
                    + statistics.median(durations) / 2 > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for r in results if r["ok"]]
    measured = [r for r in good if r["traced"] == traced]
    if not measured:
        print("error: no iteration finished; "
              + "; ".join(e for r in results for e in r["errors"]),
              file=sys.stderr)
        return 1
    layers: dict = {}
    if traced:
        metrics = per_layer(measured, [r for r in good if not r["traced"]])
        layers = median_layers(measured)
    else:
        metrics = end_to_end(measured)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    print(render(args.workload, args.seed, traced, fingerprint, results,
                 metrics, layers), file=sys.stderr)
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    keep = ("ok", "traced", "wall_s", "raw_cpu_s", "cpu_s", "probe_s",
            "raw_setup_s", "setup_s",
            "peak_rss_mb",
            "latencies", "errors", "layers", "layer_metrics")
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "workload": args.workload, "seed": args.seed, "trace": args.trace,
         "host": fingerprint, "metrics": metrics, "layers": layers,
         "top_layer": common.top_layer(layers) if layers else None,
         "attempted": attempted, "failed": failed,
         "iterations": [{k: v for k, v in r.items() if k in keep}
                        for r in results]}, indent=1))

    units = {name: unit for name, unit in common.END_TO_END}
    units.update({name: unit for name, unit, _ in common.PER_LAYER})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
