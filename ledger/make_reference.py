"""Regenerate the committed correctness references of the benchmark.

    PYTHONPATH=src python3 ledger/make_reference.py

``reference/cells.json`` holds the raw runtimes of every sweep and
serve-fleet cell from one serial, offline ``ResilientStudy`` (reps 3,
in-memory trace cache) — the result every sweep, replayed sweep and
fleet-served study must reproduce byte for byte.
``reference/repair.json`` holds each repair target's candidates
(fix-set, verdict, schedules explored) and ranked fixes at the smoke
budget.  Regenerate only when the simulator's results are meant to
change.
"""

from __future__ import annotations

import json
import sys

import common
import workloads


def cell_reference() -> dict:
    from repro.core.resilience import ResilientStudy

    tables: dict[tuple[str, str], set[str]] = {}
    for algorithms, inputs in common.sweep_grid(0):
        for algo in algorithms:
            for name in inputs:
                tables.setdefault((algo, name), set()).update(
                    common.DEVICES)
    for algo, name in common.SERVE_BASE.items():
        tables.setdefault((algo, name), set()).update(common.DEVICES)
    for algo, name, device in common.serve_fresh_cells():
        tables.setdefault((algo, name), set()).add(device)

    study = ResilientStudy(reps=common.REPS, jobs=1)
    for (algo, name), devices in sorted(tables.items()):
        for device in sorted(devices):
            res = study.sweep(device, [algo], [name], jobs=1)
            if res.failures:
                raise SystemExit(f"reference cell failed: {res.failures}")
    records = sorted(study._result_records(),
                     key=lambda r: (r["algorithm"], r["input"],
                                    r["device"], r["variant"]))
    return {"reps": study.reps, "scale": study.scale, "results": records}


def repair_reference() -> dict:
    from repro.repair.pipeline import repair

    return {target: workloads.repair_summary(
                repair(target, budget=common.REPAIR_BUDGET,
                       **common.REPAIR_OPTIONS.get(target, {})))
            for target in common.REPAIR_TARGETS}


def main() -> int:
    workloads.REFERENCE.mkdir(exist_ok=True)
    for name, payload in (("cells.json", cell_reference()),
                          ("repair.json", repair_reference())):
        path = workloads.REFERENCE / name
        # key order is kept: the sweep check rebuilds save_results text
        # from these records
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
