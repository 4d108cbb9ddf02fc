"""Validate the byte-identical-recovery invariant (the CI chaos gate).

Two checks, both against a real mini-sweep:

1. **No-op injection** — with a host fault plan installed at rate 0 for
   every kind, ``save_results`` output must be byte-identical to a run
   with no plan installed at all: the injection machinery itself must
   cost nothing and change nothing when it never fires.
2. **Flagship recovery** — the combined chaos scenario (worker
   SIGKILLs + torn trace-cache writes + one externally torn
   result-store record, resumed to completion) must reach full
   coverage with ``save_results`` byte-identical to the uninjected
   serial baseline.

Usage::

    PYTHONPATH=src python tools/validate_chaos.py [--jobs N] [--seed S]

Exit status 0 when both invariants hold, 1 with a diagnostic.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path


def _noop_plan_check(workdir: Path) -> str | None:
    """Rate-0 plan installed vs no plan: outputs must match exactly."""
    from repro.core import hostfaults
    from repro.core.chaos import ALGOS, DEVICE, INPUTS
    from repro.core.hostfaults import HostFaultKind, HostFaultPlan, HostFaultSpec
    from repro.core.study import Study

    inputs = list(INPUTS[:1])
    bare = Study(reps=1, trace_cache=False)
    bare.sweep(DEVICE, list(ALGOS), inputs, jobs=1)
    bare.save_results(workdir / "bare.json")

    plan = HostFaultPlan(
        [HostFaultSpec(kind, 0.0) for kind in HostFaultKind], seed=0)
    with hostfaults.installed(plan):
        armed = Study(reps=1, trace_cache=False)
        armed.sweep(DEVICE, list(ALGOS), inputs, jobs=1)
        armed.save_results(workdir / "armed.json")

    if (workdir / "bare.json").read_bytes() != \
            (workdir / "armed.json").read_bytes():
        return ("rate-0 host fault plan changed save_results output — "
                "the disabled injector is not a no-op")
    return None


def _flagship_check(workdir: Path, jobs: int, seed: int) -> str | None:
    """The combined kill + torn + store-record corruption scenario."""
    from repro.core.chaos import (
        ALGOS,
        DEVICE,
        INPUTS,
        run_scenario,
        scenario_suite,
    )
    from repro.core.study import Study

    inputs = list(INPUTS[:1])
    baseline_study = Study(reps=1, trace_cache=False)
    baseline_study.sweep(DEVICE, list(ALGOS), inputs, jobs=1)
    baseline_study.save_results(workdir / "baseline.json")
    baseline = (workdir / "baseline.json").read_bytes()

    combined = [s for s in scenario_suite(jobs=jobs)
                if s.name == "combined"]
    if not combined:
        return "chaos suite lost its 'combined' flagship scenario"
    outcome = run_scenario(combined[0], baseline, workdir, DEVICE,
                           list(ALGOS), inputs, reps=1, seed=seed)
    if not outcome.ok:
        return f"flagship scenario failed: {outcome.describe()}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool width for the worker-kill leg")
    parser.add_argument("--seed", type=int, default=0,
                        help="host fault plan seed")
    parser.add_argument("--workdir", default=None,
                        help="keep artifacts here instead of a temp dir")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="repro-validate-chaos-"))
    workdir.mkdir(parents=True, exist_ok=True)

    for label, check in (
            ("no-op injection", lambda: _noop_plan_check(workdir)),
            ("flagship recovery",
             lambda: _flagship_check(workdir, args.jobs, args.seed))):
        error = check()
        if error:
            print(f"FAIL ({label}): {error}", file=sys.stderr)
            return 1
        print(f"ok   {label}")
    print("chaos validation: byte-identical recovery holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
