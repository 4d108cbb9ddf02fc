"""Validate the batched-tier bit-identity invariant (the CI batched gate).

The batched warp-wide tier (:mod:`repro.gpu.batch`) is only allowed to
exist because it changes *nothing observable*.  This gate proves it
end to end:

1. **SIMT differential** — every algorithm (cc/gc/mis/mst/scc/apsp,
   both variants where applicable) run on the interpreter and on the
   batched tier: outputs and full access-event streams identical, and
   the batched tier actually engaged (no silent interpreter fallback).
2. **Memory fingerprint** — a manual CC launch sequence with arrays
   left live: ``GlobalMemory.fingerprint()`` and the aggregated
   ``LaunchStats`` identical across tiers.
3. **Verification tools keep the interpreter** — on the default tier,
   which batches every eligible launch, race detection
   (RandomScheduler) and systematic DPOR exploration (step probes,
   replay schedulers) must still run on the scalar interpreter, and
   must still find the seeded races.

Usage::

    PYTHONPATH=src python tools/validate_batched.py

Exit status 0 when every invariant holds, 1 with a diagnostic.
"""

from __future__ import annotations

import sys

import numpy as np


def _simt_differential() -> str | None:
    from repro.algorithms import apsp, cc, gc, mis, mst, scc
    from repro.core.variants import Variant
    from repro.gpu.memory import GlobalMemory
    from repro.gpu.simt import SimtExecutor
    from repro.graphs import generators as gen

    und = gen.random_uniform(24, 3.0, seed=5, name="tiny")
    drt = gen.directed_powerlaw(20, 2.5, seed=3, name="tinyd")
    runs = []
    for variant in Variant:
        runs += [
            (f"cc/{variant.value}", lambda ex, v=variant: cc.run_simt(und, v, executor=ex)),
            (f"gc/{variant.value}", lambda ex, v=variant: gc.run_simt(und, v, executor=ex)),
            (f"mis/{variant.value}", lambda ex, v=variant: mis.run_simt(und, v, executor=ex)),
            (f"mst/{variant.value}", lambda ex, v=variant: mst.run_simt(
                und.with_random_weights(1), v, executor=ex)),
            (f"scc/{variant.value}", lambda ex, v=variant: scc.run_simt(drt, v, executor=ex)),
        ]
    runs += [("apsp", lambda ex: apsp.run_simt(und, executor=ex)),
             ("apsp_shared", lambda ex: apsp.run_simt_shared(und, executor=ex))]

    for name, run in runs:
        ex_i = SimtExecutor(GlobalMemory(), batch=False)
        ex_b = SimtExecutor(GlobalMemory(), batch=True)
        out_i, _ = run(ex_i)
        out_b, _ = run(ex_b)
        if not np.array_equal(np.asarray(out_i), np.asarray(out_b)):
            return f"{name}: outputs differ between tiers"
        if ex_i.events != ex_b.events:
            for a, b in zip(ex_i.events, ex_b.events):
                if a != b:
                    return (f"{name}: event streams diverge at step "
                            f"{a.step}: {a} vs {b}")
            return (f"{name}: event counts differ "
                    f"({len(ex_i.events)} vs {len(ex_b.events)})")
        if ex_b.batch_stats.batched_launches == 0:
            return f"{name}: batched tier never engaged"
    return None


def _fingerprint_check() -> str | None:
    from repro.algorithms import cc
    from repro.core.variants import Variant
    from repro.gpu.accesses import DType
    from repro.gpu.memory import GlobalMemory
    from repro.gpu.simt import SimtExecutor
    from repro.gpu.timing import stats_from_launches
    from repro.graphs import generators as gen

    graph = gen.random_uniform(48, 3.0, seed=9, name="fp")
    results = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch)
        n = graph.num_vertices
        offsets = mem.alloc("cc_offsets", n + 1, DType.I64)
        indices = mem.alloc("cc_indices", max(1, graph.num_edges), DType.I32)
        label = mem.alloc("cc_label", n, DType.I32)
        changed = mem.alloc("cc_changed", 1, DType.I32)
        mem.upload(offsets, graph.row_offsets)
        mem.upload(indices, graph.col_indices)
        mem.upload(label, np.arange(n))
        kernel = cc.make_cc_kernel(Variant.RACE_FREE)
        launches = []
        while True:
            mem.element_write(changed, 0, 0)
            launches.append(ex.launch(kernel, n, offsets, indices,
                                      label, changed))
            if mem.element_read(changed, 0) == 0:
                break
        results.append((mem.fingerprint(), stats_from_launches(launches)))
    if results[0][0] != results[1][0]:
        return "GlobalMemory.fingerprint() differs between tiers"
    if results[0][1] != results[1][1]:
        return (f"aggregated LaunchStats differ: {results[0][1]} vs "
                f"{results[1][1]}")
    return None


def _verification_forces_interpreter() -> str | None:
    from repro.algorithms import cc
    from repro.check import check
    from repro.core.variants import Variant
    from repro.gpu.interleave import RandomScheduler
    from repro.gpu.racecheck import RaceDetector
    from repro.graphs import generators as gen

    graph = gen.random_uniform(24, 3.0, seed=5, name="tiny")
    _, ex = cc.run_simt(graph, Variant.BASELINE,
                        scheduler=RandomScheduler(7))
    if ex.batch_stats.batched_launches:
        return "racecheck run used the batched tier"
    if not RaceDetector().check(ex):
        return "racecheck on the default tier found no races"

    report = check("lost_update", variant=Variant.BASELINE,
                   budget="smoke")
    if report.ok:
        return "DPOR on the default tier missed the race"
    return None


def main() -> int:
    gates = [
        ("SIMT differential", _simt_differential),
        ("memory fingerprint", _fingerprint_check),
        ("verification tier forcing", _verification_forces_interpreter),
    ]
    for name, gate in gates:
        print(f"[validate_batched] {name} ...", flush=True)
        problem = gate()
        if problem:
            print(f"FAIL ({name}): {problem}")
            return 1
        print(f"[validate_batched] {name} OK")
    print("batched-tier bit-identity invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
