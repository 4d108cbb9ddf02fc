"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper artifact's driver scripts (``all_tests.sh`` and the
result-processing Python): run configurations, print speedup tables,
regenerate the geomean figure, and run the race detector on any code.

Commands
--------

* ``list``    — inputs, devices, and algorithms available.
* ``run``     — one (algorithm, input, device) configuration, both
  variants, with median runtimes and the speedup.
* ``table``   — a full speedup table for one device (Tables IV-VIII).
* ``fig6``    — geomean bars across all devices.
* ``races``   — SIMT race detection for one algorithm (Section IV).
* ``patterns`` — run the Indigo-style microbenchmark corpus: every racy
  idiom, its detected races and failure mode, and its race-free fix.
* ``sweep``   — the resilient sweep driver: per-cell fault isolation,
  retries, budgets, fault injection, and a checkpoint store that a
  rerun resumes from; with
  ``--telemetry`` it exports the run's metric registry and span tree.
* ``check``   — systematic schedule exploration (DPOR) of one pattern:
  enumerate interleavings, race-check each, minimize failing schedules.
* ``litmus``  — run the memory-model litmus corpus (MP, SB, LB, CoRR,
  IRIW, scoped variants) under one or more consistency models and
  assert observed outcomes against each model's allowed/forbidden sets.
* ``metrics`` — post-process an exported telemetry JSONL file
  (``metrics summarize``).
* ``trace``   — manage the on-disk trace cache (``trace prune``).
* ``chaos``   — run mini-sweeps under injected *host* faults (torn
  writes, full disks, SIGKILLed/stalled workers, corrupted store
  records) and assert byte-identical recovery.

Exit codes: 0 success, 1 command-specific failure (e.g. a chaos
scenario diverged), 2 operational error, 3 sweep interrupted by
SIGINT/SIGTERM (every finished cell is already checkpointed).
"""

from __future__ import annotations

import argparse
import sys

from repro import Study, Variant
from repro.core.report import (
    fig6_bars,
    geomean_summary,
    resilient_speedup_table,
    speedup_table,
)
from repro.core.resilience import CellBudget, ResilientStudy
from repro.core.variants import get_algorithm, list_algorithms
from repro.errors import ReproError, SweepInterrupted
from repro.gpu.device import DEVICE_ORDER, PAPER_GPUS
from repro.gpu.faults import FaultPlan
from repro.graphs.suite import load_suite_graph, suite_names


def _cmd_list(_args) -> int:
    print("devices:")
    for key in DEVICE_ORDER:
        spec = PAPER_GPUS[key]
        print(f"  {key:10s} {spec.name} ({spec.architecture}, "
              f"{spec.sms} SMs, {spec.l1_kb} kB L1, {spec.l2_mb} MB L2)")
    print("algorithms:")
    for algo in list_algorithms():
        races = "racy baseline" if algo.has_races else "race-free by construction"
        print(f"  {algo.key:5s} {algo.full_name} — {races}")
    print("undirected inputs (Table II analogs):")
    for name in suite_names(directed=False):
        print(f"  {name}")
    print("directed inputs (Table III analogs, SCC only):")
    for name in suite_names(directed=True):
        print(f"  {name}")
    return 0


def _cmd_run(args) -> int:
    study = Study(reps=args.reps, validate=args.validate,
                  memory_model=args.memory_model)
    base = study.run(args.algo, args.input, args.device, Variant.BASELINE)
    free = study.run(args.algo, args.input, args.device, Variant.RACE_FREE)
    print(f"{args.algo} on {args.input} ({args.device}, "
          f"median of {args.reps}):")
    if args.memory_model:
        from repro.memmodel import get_model
        print(f"  memory model: {get_model(args.memory_model).describe()}")
    print(f"  baseline : {base.median_ms:10.4f} ms "
          f"({base.last_run.rounds} rounds)")
    print(f"  race-free: {free.median_ms:10.4f} ms "
          f"({free.last_run.rounds} rounds)")
    algo = get_algorithm(args.algo)
    if algo.has_races:
        print(f"  speedup  : {base.median_ms / free.median_ms:.3f}x "
              "(>1 means race-free is faster)")
    else:
        print("  (no races in this code; variants are identical)")
    return 0


def _cmd_table(args) -> int:
    study = Study(reps=args.reps)
    if args.algo == "scc":
        inputs = suite_names(directed=True)
        cells = study.speedup_table(args.device, ["scc"], inputs,
                                    jobs=args.jobs)
        title = f"SCC speedups on {args.device} (cf. Table VIII)"
    else:
        inputs = suite_names(directed=False)
        algos = ["cc", "gc", "mis", "mst"]
        cells = study.speedup_table(args.device, algos, inputs,
                                    jobs=args.jobs)
        title = f"Race-free speedups on {args.device} (cf. Tables IV-VII)"
    print(speedup_table(cells, title=title))
    return 0


def _cmd_fig6(args) -> int:
    study = Study(reps=args.reps)
    undirected = suite_names(directed=False)[:args.limit or None]
    directed = suite_names(directed=True)[:args.limit or None]
    cells = []
    for dev in DEVICE_ORDER:
        cells += study.speedup_table(dev, ["cc", "gc", "mis", "mst"],
                                     undirected, jobs=args.jobs)
        cells += study.speedup_table(dev, ["scc"], directed,
                                     jobs=args.jobs)
    print(fig6_bars(geomean_summary(cells)))
    return 0


def _cmd_races(args) -> int:
    import importlib

    from repro.gpu.interleave import RandomScheduler
    from repro.gpu.racecheck import RaceDetector, summarize_races
    from repro.graphs import generators as gen

    module = importlib.import_module(f"repro.algorithms.{args.algo}")
    if args.algo == "scc":
        graph = gen.directed_powerlaw(24, 2.5, seed=args.seed)
    elif args.algo == "apsp":
        graph = gen.random_uniform(6, 2.0, seed=args.seed)
        graph = graph.with_random_weights(seed=1)
    else:
        graph = gen.random_uniform(24, 3.0, seed=args.seed)
        if get_algorithm(args.algo).needs_weights:
            graph = graph.with_random_weights(seed=1)

    for variant in Variant:
        if args.algo == "apsp":
            if variant is Variant.RACE_FREE:
                continue
            _, ex = module.run_simt(graph,
                                    scheduler=RandomScheduler(args.seed))
        else:
            _, ex = module.run_simt(graph, variant,
                                    scheduler=RandomScheduler(args.seed))
        reports = RaceDetector().check(ex)
        label = variant.value
        if not reports:
            print(f"{args.algo} {label}: no data races detected")
            continue
        print(f"{args.algo} {label}: {len(reports)} race report(s)")
        for array, kinds in sorted(summarize_races(reports).items()):
            print(f"  {array}: {kinds}")
        for report in reports[:args.show]:
            print(f"  e.g. {report.describe()}")
    return 0


def _cmd_inputs(args) -> int:
    """Regenerate Tables II/III: the input suite with paper-vs-scaled
    properties."""
    from repro.graphs.properties import compute_properties
    from repro.graphs.suite import suite_entry
    from repro.utils.tables import format_table

    directed = args.directed
    rows = []
    for name in suite_names(directed=directed):
        entry = suite_entry(name)
        g = load_suite_graph(name)
        p = compute_properties(g, kind=entry.kind)
        rows.append([
            name, entry.kind,
            entry.paper_vertices, p.num_vertices,
            entry.paper_edges, p.num_edges,
            f"{entry.paper_d_avg:.1f}", f"{p.d_avg:.1f}",
        ])
    title = ("Table III analog (directed, SCC)" if directed
             else "Table II analog (undirected)")
    print(title)
    print(format_table(
        ["Graph", "Type", "Paper |V|", "Scaled |V|", "Paper |E|",
         "Scaled |E|", "Paper d-avg", "Scaled d-avg"], rows))
    return 0


def _export_telemetry(path: str, fmt: str) -> None:
    """Write the active registry/spans to ``path`` in ``fmt``."""
    from repro.telemetry.export import (
        to_console,
        to_prometheus,
        write_jsonl,
    )
    from repro.telemetry.metrics import get_registry
    from repro.telemetry.spans import get_spans
    from repro.utils.atomicio import atomic_write_text

    registry = get_registry()
    if fmt == "prom":
        atomic_write_text(path, to_prometheus(registry))
    elif fmt == "console":
        text = to_console(registry)
        print(text)
        atomic_write_text(path, text + "\n")
    else:
        write_jsonl(path, registry, get_spans())
    print(f"telemetry ({fmt}) written to {path}")


def _cmd_sweep(args) -> int:
    """Resilient speedup sweep: Tables IV-VIII under adversity."""
    if args.telemetry:
        from repro import telemetry

        with telemetry.session():
            return _run_sweep(args)
    return _run_sweep(args)


def _run_sweep(args) -> int:
    faults = (FaultPlan.parse(args.inject, seed=args.fault_seed)
              if args.inject else None)
    budget = CellBudget(max_seconds=args.max_seconds)
    study = ResilientStudy(
        reps=args.reps, validate=args.validate, retries=args.retries,
        backoff_s=args.backoff, budget=budget, faults=faults,
        checkpoint=args.checkpoint, trace_cache=args.trace_cache or None)

    if args.algo == "scc":
        algos = ["scc"]
        inputs = args.inputs or suite_names(directed=True)
    else:
        algos = ["cc", "gc", "mis", "mst"]
        inputs = args.inputs or suite_names(directed=False)
    if args.limit:
        inputs = inputs[:args.limit]

    sweep = study.sweep(args.device, algos, inputs, jobs=args.jobs)
    injected = f", inject: {faults.describe()}" if faults else ""
    title = (f"Resilient speedups on {args.device} "
             f"(median of {args.reps}{injected})")
    print(resilient_speedup_table(sweep.cells, title=title))
    print(f"cells executed this run: {study.cells_executed} "
          f"(resumed {study.cells_resumed} results)")
    if args.telemetry:
        _export_telemetry(args.telemetry, args.metrics_format)
    return 0


def _cmd_chaos(args) -> int:
    """Host-fault chaos suite: inject, recover, diff against baseline."""
    from repro.core.chaos import run_chaos

    report = run_chaos(device=args.device, inputs=args.inputs,
                       reps=args.reps, jobs=args.jobs, seed=args.seed,
                       quick=args.quick, workdir=args.workdir)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """Run the sweep engine as a hardened async job server."""
    from repro.core import hostfaults
    from repro.service.server import ServiceConfig, serve_forever

    faults = (FaultPlan.parse(args.inject, seed=args.fault_seed)
              if args.inject else None)
    config = ServiceConfig(
        host=args.host, port=args.port, reps=args.reps, scale=args.scale,
        validate=args.validate, retries=args.retries, backoff_s=args.backoff,
        trace_dir=args.trace_cache or None, store_dir=args.store or None,
        faults=faults, workers=args.workers,
        max_pending_cells=args.max_pending_cells,
        per_tenant_cells=args.per_tenant_cells,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        saturation_threshold=args.saturation,
        default_deadline_s=args.default_deadline,
        drain_deadline_s=args.drain_deadline)

    host_plan = None
    if args.inject_host:
        targets = tuple(t for t in (args.host_targets or "").split(",")
                        if t)
        host_plan = hostfaults.HostFaultPlan.parse(
            args.inject_host, seed=args.host_seed, targets=targets,
            disrupt_generations=args.disrupt_generations)

    def _serve() -> int:
        if host_plan is not None:
            with hostfaults.installed(host_plan):
                return serve_forever(config)
        return serve_forever(config)

    if args.telemetry:
        from repro import telemetry

        with telemetry.session():
            code = _serve()
            _export_telemetry(args.telemetry, args.metrics_format)
            return code
    return _serve()


def _cmd_metrics(args) -> int:
    """Post-process an exported telemetry JSONL file."""
    from repro.telemetry.export import read_jsonl, summarize

    metrics, spans = read_jsonl(args.file)
    print(summarize(metrics, spans))
    return 0


def _cmd_trace(args) -> int:
    """Manage the on-disk trace cache."""
    from repro.perf.trace import TraceCache

    cache = TraceCache(disk_dir=args.dir)
    removed, freed = cache.prune(args.max_bytes)
    entries, nbytes = cache.disk_usage()
    print(f"pruned {removed} trace(s), freed {freed} bytes; "
          f"{entries} entries ({nbytes} bytes) remain in {args.dir}")
    return 0


def _cmd_patterns(args) -> int:
    from repro.patterns import PATTERNS, run_pattern
    from repro.utils.tables import format_table

    rows = []
    for name, pattern in sorted(PATTERNS.items()):
        for variant in Variant:
            outcomes = set()
            races = 0
            for seed in range(args.seeds):
                result = run_pattern(name, variant, seed=seed)
                outcomes.add(result.outcome.value)
                races = max(races, result.races)
            rows.append([name, variant.value, races,
                         "/".join(sorted(outcomes))])
    print(format_table(
        ["Pattern", "Variant", "Races", "Outcomes observed"], rows))
    print("\nPatterns marked race-free by design (false-positive "
          "probes): "
          + ", ".join(sorted(p.name for p in PATTERNS.values()
                             if not p.expected_racy)))
    return 0


def _cmd_check(args) -> int:
    from repro.check import BUDGETS, ExploreBudget, check
    from repro.gpu.faults import FaultPlan as _FaultPlan
    from repro.patterns import PATTERNS

    budget = BUDGETS[args.budget]
    if args.max_schedules or args.preemption_bound is not None:
        budget = ExploreBudget(
            max_schedules=args.max_schedules or budget.max_schedules,
            max_steps_per_run=budget.max_steps_per_run,
            max_seconds=budget.max_seconds,
            preemption_bound=(args.preemption_bound
                              if args.preemption_bound is not None
                              else budget.preemption_bound))
    faults = (_FaultPlan.parse(args.inject, seed=args.fault_seed)
              if args.inject else None)
    names = ([args.pattern] if args.pattern != "all"
             else sorted(PATTERNS))
    variants = ([Variant(args.variant)] if args.variant != "both"
                else list(Variant))

    # with --json - the narration moves to stderr so stdout is
    # machine-parseable JSON and nothing else
    narrate = sys.stderr if args.json == "-" else sys.stdout
    failed = False
    json_entries = []
    for name in names:
        for variant in variants:
            report = check(name, variant=variant, budget=budget,
                           mode=args.mode, faults=faults,
                           compare_naive=args.compare_naive,
                           minimize=not args.no_minimize,
                           state_dedupe=args.state_dedupe)
            print(report.summary(), file=narrate)
            print(file=narrate)
            expected_racy = (PATTERNS[name].expected_racy
                             and variant is Variant.BASELINE)
            if report.ok == expected_racy:
                failed = True
                verdict = "MISSED RACE" if expected_racy else "FALSE ALARM"
                print(f"  *** {verdict}: {name}/{variant.value} ***\n",
                      file=narrate)
            if args.json:
                json_entries.append({
                    "program": report.program,
                    "ok": report.ok,
                    "expected_racy": expected_racy,
                    "schedules_explored": report.explore.schedules,
                    "complete": report.explore.complete,
                    "stop_reason": report.explore.stop_reason,
                    "truncated_runs": report.explore.truncated_runs,
                    "total_steps": report.explore.total_steps,
                    "races": [r.to_json() for r in report.races],
                    "failures": [
                        {"kind": f.kind, "detail": f.detail,
                         "schedule": f.repro_log.compact(),
                         "replay_verified": f.replay_verified}
                        for f in report.failures
                    ],
                })
    if args.json:
        payload = {"budget": args.budget, "mode": args.mode,
                   "ok": not failed, "reports": json_entries}
        _write_json(args.json, payload)
        if args.json != "-":
            print(f"wrote {args.json}")
    return 1 if failed else 0


def _write_json(path: str, payload: dict) -> None:
    import json

    if path == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_litmus(args) -> int:
    from repro.check import ExploreBudget
    from repro.memmodel.litmus import (
        CORPUS,
        LITMUS_BUDGET,
        format_table,
        run_corpus,
    )

    models = args.model.split(",") if args.model else None
    tests = args.test.split(",") if args.test else None
    if tests:
        known = {t.name for t in CORPUS}
        unknown = [t for t in tests if t not in known]
        if unknown:
            raise ReproError(f"unknown litmus test(s) {unknown}; known: "
                             f"{sorted(known)}")
    budget = LITMUS_BUDGET
    if args.max_schedules or args.max_seconds:
        budget = ExploreBudget(
            max_schedules=args.max_schedules or budget.max_schedules,
            max_steps_per_run=budget.max_steps_per_run,
            max_seconds=args.max_seconds or budget.max_seconds,
            preemption_bound=budget.preemption_bound)

    results = run_corpus(models=models, tests=tests, budget=budget)
    print(format_table(results))
    bad = [r for r in results if not r.ok]
    incomplete = [r for r in results if not r.complete]
    print(f"\n{len(results)} cells: {len(results) - len(bad)} ok, "
          f"{len(bad)} failed, {len(incomplete)} incomplete")
    for r in bad:
        if r.forbidden_observed:
            print(f"  *** {r.test}/{r.model}: FORBIDDEN outcome "
                  f"observed: {sorted(r.forbidden_observed)} ***")
        if r.complete and r.missing:
            print(f"  *** {r.test}/{r.model}: allowed outcome "
                  f"never reached: {sorted(r.missing)} ***")
    return 1 if bad else 0


def _cmd_repair(args) -> int:
    from repro.repair import list_targets, repair

    names = list_targets() if args.target == "all" else [args.target]
    devices = tuple(args.devices.split(",")) if args.devices else None
    narrate = sys.stderr if args.json == "-" else sys.stdout
    failed = False
    reports = []
    for name in names:
        report = repair(
            name, budget=args.budget,
            **({"devices": devices} if devices else {}),
            seeds=tuple(range(args.seeds)),
            max_candidates=args.max_candidates,
            shrink=not args.no_shrink)
        print(report.render(), file=narrate)
        print(file=narrate)
        reports.append(report)
        if not report.ok:
            failed = True
            print(f"  *** UNREPAIRED: {name} — races found but no "
                  "candidate fix was verified race-free ***\n",
                  file=narrate)
    if args.json:
        payload = {"budget": args.budget,
                   "ok": not failed,
                   "reports": [r.to_json() for r in reports]}
        _write_json(args.json, payload)
        if args.json != "-":
            print(f"wrote {args.json}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available inputs/devices/algorithms")

    run = sub.add_parser("run", help="run one configuration, both variants")
    run.add_argument("--algo", required=True)
    run.add_argument("--input", required=True)
    run.add_argument("--device", default="titanv")
    run.add_argument("--reps", type=int, default=9)
    run.add_argument("--validate", action="store_true",
                     help="verify outputs against reference algorithms")
    run.add_argument("--memory-model", default=None, metavar="MODEL",
                     help="price accesses under a consistency model "
                          "(sc, tso[:N], relaxed_gpu, ptx[:order]; "
                          "default: the paper's relaxed GPU model)")

    table = sub.add_parser("table", help="full speedup table for a device")
    table.add_argument("--device", default="titanv")
    table.add_argument("--algo", default="undirected",
                       help="'scc' for Table VIII, else Tables IV-VII")
    table.add_argument("--reps", type=int, default=3)
    table.add_argument("--jobs", type=int, default=None,
                       help="parallel sweep workers (default: REPRO_JOBS)")

    fig6 = sub.add_parser("fig6", help="geomean bars across devices")
    fig6.add_argument("--reps", type=int, default=3)
    fig6.add_argument("--limit", type=int, default=0,
                      help="use only the first N inputs (0 = all)")
    fig6.add_argument("--jobs", type=int, default=None,
                      help="parallel sweep workers (default: REPRO_JOBS)")

    races = sub.add_parser("races", help="detect races in one code")
    races.add_argument("--algo", required=True)
    races.add_argument("--seed", type=int, default=7)
    races.add_argument("--show", type=int, default=3,
                       help="example reports to print per variant")

    patterns = sub.add_parser("patterns",
                              help="run the racy-idiom microbenchmarks")
    patterns.add_argument("--seeds", type=int, default=8,
                          help="schedules to try per pattern variant")

    inputs = sub.add_parser("inputs",
                            help="the input suite (Tables II/III analog)")
    inputs.add_argument("--directed", action="store_true",
                        help="show the directed (SCC) inputs")

    sweep = sub.add_parser(
        "sweep", help="resilient sweep with isolation/retries/resume")
    sweep.add_argument("--device", default="titanv")
    sweep.add_argument("--algo", default="undirected",
                       help="'scc' for Table VIII, else Tables IV-VII")
    sweep.add_argument("--inputs", type=lambda s: s.split(","),
                       default=None,
                       help="comma-separated input names (default: suite)")
    sweep.add_argument("--reps", type=int, default=3)
    sweep.add_argument("--limit", type=int, default=0,
                       help="use only the first N inputs (0 = all)")
    sweep.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="result-store directory: every finished cell "
                            "is published there, and a rerun with the "
                            "same directory executes only the missing "
                            "cells")
    sweep.add_argument("--retries", type=int, default=0,
                       help="extra attempts after a transient kernel fault")
    sweep.add_argument("--backoff", type=float, default=0.0,
                       help="base retry backoff in seconds (exponential "
                            "with full jitter, deadline-capped)")
    sweep.add_argument("--max-seconds", type=float, default=None,
                       help="wall-clock budget per cell")
    sweep.add_argument("--inject", default=None, metavar="SPEC",
                       help="fault plan, e.g. 'tear=0.5,abort=0.2,stall'")
    sweep.add_argument("--fault-seed", type=int, default=0)
    sweep.add_argument("--validate", action="store_true",
                       help="verify outputs (how torn writes are caught)")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="parallel sweep workers (default: REPRO_JOBS, "
                            "1 = serial); results are bit-identical")
    sweep.add_argument("--trace-cache", default=None, metavar="DIR",
                       help="on-disk trace cache directory (default: "
                            "REPRO_TRACE_CACHE; shared by the workers)")
    sweep.add_argument("--telemetry", default=None, metavar="PATH",
                       help="enable telemetry and export the sweep's "
                            "metrics/spans to PATH")
    sweep.add_argument("--metrics-format", default="jsonl",
                       choices=["jsonl", "prom", "console"],
                       help="telemetry export format (default: jsonl)")

    chaos = sub.add_parser(
        "chaos",
        help="inject host faults into mini-sweeps, assert recovery")
    chaos.add_argument("--quick", action="store_true",
                       help="CI-sized grid (one input, one repetition)")
    chaos.add_argument("--device", default="titanv")
    chaos.add_argument("--inputs", type=lambda s: s.split(","),
                       default=None,
                       help="comma-separated input names (default: a "
                            "small built-in grid)")
    chaos.add_argument("--reps", type=int, default=2)
    chaos.add_argument("--jobs", type=int, default=4,
                       help="worker count for the worker kill/stall "
                            "scenarios")
    chaos.add_argument("--seed", type=int, default=0,
                       help="host fault plan seed (replays exactly)")
    chaos.add_argument("--workdir", default=None,
                       help="keep scenario artifacts here instead of a "
                            "temp directory")

    serve = sub.add_parser(
        "serve",
        help="run the sweep engine as a hardened async job server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421,
                       help="TCP port (0 picks a free one; the bound "
                            "address is printed at startup)")
    serve.add_argument("--reps", type=int, default=3)
    serve.add_argument("--scale", type=float, default=1.0,
                       help="workload scale factor for every cell")
    serve.add_argument("--validate", action="store_true",
                       help="validate outputs for every served cell")
    serve.add_argument("--retries", type=int, default=1,
                       help="per-cell retries on transient kernel faults")
    serve.add_argument("--backoff", type=float, default=0.05,
                       help="base retry backoff in seconds (exponential "
                            "with full jitter, deadline-capped)")
    serve.add_argument("--workers", type=int, default=1,
                       help="sweep worker processes (>1 runs the "
                            "supervised fleet: heartbeats, crash "
                            "failover, bounded respawn)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="result-store directory, the service study's "
                            "checkpoint: finished cells are published "
                            "there and served from it after a restart")
    serve.add_argument("--trace-cache", default=None, metavar="DIR",
                       help="on-disk trace cache directory")
    serve.add_argument("--inject", default=None, metavar="SPEC",
                       help="GPU fault plan for every cell, e.g. "
                            "'flip=0.05'")
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument("--inject-host", default=None, metavar="SPEC",
                       help="host fault plan installed for the server's "
                            "lifetime, e.g. 'kill=1.0,torn=0.4'")
    serve.add_argument("--host-seed", type=int, default=0)
    serve.add_argument("--host-targets", default=None,
                       help="comma-separated filename globs the storage "
                            "host faults apply to")
    serve.add_argument("--disrupt-generations", type=int, default=None,
                       help="worker kill/stall only while the worker "
                            "slot's generation is below this bound")
    serve.add_argument("--max-pending-cells", type=int, default=256,
                       help="global admission bound on reserved cells")
    serve.add_argument("--per-tenant-cells", type=int, default=64,
                       help="admission bound per tenant")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures that open a cell's "
                            "circuit breaker")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       help="seconds an open breaker waits before one "
                            "half-open trial")
    serve.add_argument("--saturation", type=int, default=8,
                       help="queued executions at which cached records "
                            "are served stale instead of queueing more")
    serve.add_argument("--default-deadline", type=float, default=None,
                       help="deadline for requests that do not send one")
    serve.add_argument("--drain-deadline", type=float, default=20.0,
                       help="seconds a SIGTERM drain waits for in-flight "
                            "streams before cancelling them")
    serve.add_argument("--telemetry", default=None, metavar="PATH",
                       help="enable telemetry; export metrics/spans to "
                            "PATH after the drain")
    serve.add_argument("--metrics-format", default="jsonl",
                       choices=["jsonl", "prom", "console"])

    metrics = sub.add_parser(
        "metrics", help="post-process exported telemetry")
    msub = metrics.add_subparsers(dest="metrics_command", required=True)
    summ = msub.add_parser(
        "summarize", help="human-readable rollup of a telemetry JSONL file")
    summ.add_argument("file", help="telemetry JSONL file to summarize")

    trace = sub.add_parser("trace", help="manage the on-disk trace cache")
    tsub = trace.add_subparsers(dest="trace_command", required=True)
    prune = tsub.add_parser(
        "prune", help="evict oldest traces until the cache fits a budget")
    prune.add_argument("--dir", required=True,
                       help="trace cache directory to prune")
    prune.add_argument("--max-bytes", type=int, required=True,
                       help="target size of the disk layer in bytes")

    chk = sub.add_parser(
        "check", help="systematic schedule exploration of a pattern")
    chk.add_argument("pattern", nargs="?", default="all",
                     help="pattern name from the corpus, or 'all'")
    chk.add_argument("--variant", default="both",
                     choices=["baseline", "racefree", "both"])
    chk.add_argument("--budget", default="default",
                     choices=["smoke", "default", "deep"],
                     help="exploration budget tier")
    chk.add_argument("--mode", default="dpor", choices=["dpor", "naive"])
    chk.add_argument("--max-schedules", type=int, default=0,
                     help="override the budget's schedule cap (0 = keep)")
    chk.add_argument("--preemption-bound", type=int, default=None,
                     help="override the budget's preemption bound")
    chk.add_argument("--compare-naive", action="store_true",
                     help="also run naive DFS to report the DPOR "
                          "reduction factor")
    chk.add_argument("--no-minimize", action="store_true",
                     help="skip delta-debugging failing schedules")
    chk.add_argument("--state-dedupe", action="store_true",
                     help="prune branches into already-seen states")
    chk.add_argument("--inject", default=None, metavar="SPEC",
                     help="explore under a fault plan, e.g. 'tear=0.5'")
    chk.add_argument("--fault-seed", type=int, default=0)
    chk.add_argument("--json", default=None, metavar="PATH",
                     help="write the structured race reports to PATH "
                          "('-' for stdout)")

    lit = sub.add_parser(
        "litmus", help="run the memory-model litmus corpus and check "
                       "outcomes against each model")
    lit.add_argument("--model", default=None,
                     help="comma-separated model specs (default: "
                          "sc,tso,relaxed_gpu,ptx)")
    lit.add_argument("--test", default=None,
                     help="comma-separated litmus test names "
                          "(default: full corpus)")
    lit.add_argument("--max-schedules", type=int, default=0,
                     help="override the exploration schedule cap "
                          "(0 = keep; completeness needs the default)")
    lit.add_argument("--max-seconds", type=float, default=0,
                     help="override the per-cell wall-clock budget")

    rep = sub.add_parser(
        "repair", help="localize, synthesize, DPOR-verify, and rank "
                       "race fixes for a target")
    rep.add_argument("target", nargs="?", default="all",
                     help="repair target (cc, mis, gc, mst, scc, "
                          "twophase) or 'all'")
    rep.add_argument("--budget", default="smoke",
                     choices=["smoke", "default", "deep"],
                     help="DPOR budget per candidate verification")
    rep.add_argument("--devices", default=None,
                     help="comma-separated device keys for ranking "
                          "(default: full zoo)")
    rep.add_argument("--seeds", type=int, default=3,
                     help="random-scheduler seeds for localization")
    rep.add_argument("--max-candidates", type=int, default=8,
                     help="cap on synthesized fix-sets")
    rep.add_argument("--no-shrink", action="store_true",
                     help="skip the greedy minimal-set search")
    rep.add_argument("--json", default=None, metavar="PATH",
                     help="write the full repair reports to PATH "
                          "('-' for stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "table": _cmd_table,
        "fig6": _cmd_fig6,
        "races": _cmd_races,
        "patterns": _cmd_patterns,
        "inputs": _cmd_inputs,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
        "litmus": _cmd_litmus,
        "repair": _cmd_repair,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except SweepInterrupted as exc:
        # a deliberate operator stop, not a failure: every finished
        # cell is checkpointed, so the distinct code lets wrappers rerun
        print(f"interrupted: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        # one-line diagnostic, not a traceback: a bad input name, a
        # deadlocked kernel, or an old checkpoint file passed as a
        # store directory is an operational failure of the experiment,
        # not a bug in the harness
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
