"""Child entry point: one iteration of one workload in a fresh
interpreter.

    PYTHONPATH=src python3 ledger/iteration.py --workload sweep-cold \
        --workdir DIR --seed 0 --trace 0 --out result.json

``run.py`` spawns it once per iteration.  The result holds the
iteration's set-up time: the CPU seconds this process has used by the
end of the workload's imports (interpreter start included), plus, for
serve-fleet, those of the server until it is ready.  Untraced
iterations also report their times scaled to the reference host speed
(``workloads.TimedRegion``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

#: modules each workload imports before its timed region
PRELOAD = {
    "sweep-cold": ("repro.core.resilience",),
    "sweep-warm": ("repro.core.resilience",),
    "sweep-fill": ("repro.core.resilience",),
    "repair-smoke": ("repro.repair.pipeline",),
    "serve-fleet": (),
}


def _vm_hwm_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRELOAD))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    import importlib

    import common

    # untraced iterations probe the host speed; the probe processes
    # are forked now, before the imports, so they stay small
    probe = (common.HostProbe()
             if not args.trace and args.workload != "sweep-fill" else None)
    try:
        import workloads

        for module in PRELOAD[args.workload]:
            importlib.import_module(module)
        ready = workloads.own_cpu_s()

        args.workdir.mkdir(parents=True, exist_ok=True)
        if args.workload == "sweep-fill":
            result = workloads.sweep_fill(args.workdir, args.seed)
        else:
            result = workloads.run(args.workload, args.workdir, args.seed,
                                   probe, ready)
        # every child but the probe processes (pool workers, the server
        # and its fleet) has been waited for by now; both figures are in
        # KiB.  The own peak is the address space's high-water mark:
        # ru_maxrss would carry over the peak of the parent this process
        # was forked from
        own = _vm_hwm_kib()
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (own + children) / 1024
    finally:
        if probe is not None:
            probe.close()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
