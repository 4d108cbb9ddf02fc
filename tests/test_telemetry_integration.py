"""Integration tests for telemetry across the simulation stack.

The acceptance properties of the subsystem:

* telemetry off (the default) leaves study results, ``save_results``
  JSON, and the checkpoint store's records byte-identical;
* the merged registry of a parallel (``jobs=N``) sweep equals the
  serial registry on every sim-scope family;
* the engine's L1 hit-rate gauges mechanically reproduce the paper's
  Section VI.A explanation (baseline CC has the higher L1 hit rate);
* a repair registers only families ``docs/observability.md``'s
  catalog names, and the catalog names exactly the families ``src/``
  spells out.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro import Study, Variant, telemetry
from repro.gpu.accesses import AccessKind, DType, RMWOp
from repro.gpu.faults import FaultPlan
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor
from repro.telemetry.metrics import SCOPE_SIM, get_registry

INPUTS = ["internet"]
ALGOS = ["cc", "mis"]


@pytest.fixture(autouse=True)
def _restore_telemetry():
    yield
    telemetry.disable()


def _sweep(tmp_path, *, jobs: int, name: str,
           telemetry_on: bool) -> tuple[dict, bytes]:
    """One small sweep; returns (sim snapshot, results bytes)."""
    out = tmp_path / f"{name}.json"
    if telemetry_on:
        with telemetry.session() as (registry, _spans):
            study = Study(reps=2, trace_cache=False, jobs=jobs)
            study.sweep("titanv", ALGOS, INPUTS)
            study.save_results(out)
            snap = registry.snapshot(scope=SCOPE_SIM)
    else:
        study = Study(reps=2, trace_cache=False, jobs=jobs)
        study.sweep("titanv", ALGOS, INPUTS)
        study.save_results(out)
        snap = {}
    return snap, out.read_bytes()


# ----------------------------------------------------------------------
# Telemetry off: bit-identical outputs
# ----------------------------------------------------------------------
def test_off_and_on_save_results_identical(tmp_path):
    _, off = _sweep(tmp_path, jobs=1, name="off", telemetry_on=False)
    _, on = _sweep(tmp_path, jobs=1, name="on", telemetry_on=True)
    assert off == on


def test_off_and_on_checkpoints_identical(tmp_path):
    # the checkpoint is a result store: every published record, by name
    def checkpoint(name: str, enabled: bool) -> dict[str, bytes]:
        path = tmp_path / f"{name}-store"

        def run() -> None:
            study = Study(reps=2, trace_cache=False,
                          checkpoint=path, retries=1)
            study.sweep("titanv", ["cc"], INPUTS)

        if enabled:
            with telemetry.session():
                run()
        else:
            run()
        return {p.name: p.read_bytes()
                for p in sorted(path.glob("cell-*.json"))}

    off = checkpoint("off", False)
    assert len(off) == len(INPUTS)
    assert off == checkpoint("on", True)


# ----------------------------------------------------------------------
# Parallel == serial on sim scope
# ----------------------------------------------------------------------
def test_parallel_sim_scope_registry_equals_serial(tmp_path):
    serial_snap, serial_bytes = _sweep(tmp_path, jobs=1, name="serial",
                                       telemetry_on=True)
    par_snap, par_bytes = _sweep(tmp_path, jobs=2, name="parallel",
                                 telemetry_on=True)
    assert serial_bytes == par_bytes
    assert json.dumps(serial_snap, sort_keys=True) == \
        json.dumps(par_snap, sort_keys=True)
    # and the comparison is not vacuous
    names = [f["name"] for f in serial_snap["families"]]
    assert "repro_accesses_total" in names
    assert "repro_l1_hit_rate" in names
    assert "repro_cells_total" in names


def test_plain_study_parallel_sim_scope_equals_serial(tmp_path):
    def run(jobs: int) -> dict:
        with telemetry.session() as (registry, _spans):
            study = Study(reps=2, trace_cache=False, jobs=jobs)
            study.speedup_table("titanv", ALGOS, INPUTS)
            return registry.snapshot(scope=SCOPE_SIM)

    assert json.dumps(run(1), sort_keys=True) == \
        json.dumps(run(2), sort_keys=True)


def test_multi_device_parallel_sim_scope_equals_serial(tmp_path):
    """Cells priced in the parent from cached traces (2070super's cc,
    every a100 cell) account for themselves as a worker would."""
    def run(jobs: int) -> tuple[str, bytes]:
        name = f"jobs{jobs}"
        with telemetry.session() as (registry, _spans):
            study = Study(reps=2, trace_cache=tmp_path / name,
                          checkpoint=tmp_path / f"{name}-store")
            for device in ("titanv", "2070super", "a100"):
                study.sweep(device, ALGOS, ["internet", "USA-road-d.NY"],
                            jobs=jobs)
            study.save_results(tmp_path / f"{name}.json")
            snap = registry.snapshot(scope=SCOPE_SIM)
        return (json.dumps(snap, sort_keys=True),
                (tmp_path / f"{name}.json").read_bytes())

    serial, parallel = run(1), run(2)
    assert parallel == serial
    cells = json.loads(serial[0])["families"]
    assert "a100" in json.dumps(
        [f for f in cells if f["name"] == "repro_perf_runs_total"])


def test_parallel_worker_spans_are_attributed():
    with telemetry.session() as (_registry, spans):
        study = Study(reps=1, trace_cache=False, jobs=2)
        study.speedup_table("titanv", ["cc"], INPUTS)
        shipped = [s for s in spans.finished if "worker" in s.attrs]
        assert shipped, "worker spans should be merged with attribution"
        assert any(s.name == "sweep.cell" for s in shipped)


# ----------------------------------------------------------------------
# Section VI.A: the L1 hit-rate explanation
# ----------------------------------------------------------------------
def test_cc_baseline_l1_hit_rate_exceeds_race_free():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=1, trace_cache=False)
        study.speedup("cc", "internet", "titanv")
        gauge = registry.get("repro_l1_hit_rate")
        base = gauge.value("cc", "internet", "titanv", "baseline")
        free = gauge.value("cc", "internet", "titanv", "racefree")
    assert base > free > 0


def test_atomic_bypass_counts_rise_in_race_free_cc():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=1, trace_cache=False)
        study.speedup("cc", "internet", "titanv")
        fam = registry.get("repro_atomic_l1_bypass_total")
        base = fam.value("cc", "internet", "titanv", "baseline")
        free = fam.value("cc", "internet", "titanv", "racefree")
    assert free > base


# ----------------------------------------------------------------------
# Engine / resilience / trace-cache instrumentation details
# ----------------------------------------------------------------------
def test_record_replay_source_counter(tmp_path):
    # replay happens when a second study prices the same configuration
    # from the shared disk layer (gc reads each rep's own seed, so one
    # study's reps all record; each recording also stores its race-free
    # sibling, which is not a recording)
    with telemetry.session() as (registry, _spans):
        first = Study(reps=2, trace_cache=str(tmp_path / "tc"))
        first.run("gc", "internet", "titanv", Variant.BASELINE)
        second = Study(reps=2, trace_cache=str(tmp_path / "tc"))
        second.run("gc", "internet", "titanv", Variant.BASELINE)
        fam = registry.get("repro_perf_trace_source_total")
        assert fam.value("record") == 2
        assert fam.value("replay") == 2
        events = registry.get("repro_trace_cache_events_total")
        assert events.value("record") == 2
        assert events.value("sibling") == 2
        assert events.value("disk_hit") == 2
        assert registry.get("repro_trace_cache_disk_entries").value() == 4


def test_cells_total_counts_outcomes():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=1, trace_cache=False, retries=0,
                      faults=FaultPlan.parse("abort=1.0", seed=1))
        study.sweep("titanv", ["cc"], INPUTS)
        cells = registry.get("repro_cells_total")
        assert cells.value("fault") == 2  # both variants abort
        assert registry.get("repro_cell_attempts_total").value() == 2


def test_cells_total_ok_path():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=1, trace_cache=False)
        study.sweep("titanv", ["cc"], INPUTS)
        assert registry.get("repro_cells_total").value("ok") == 2
        # every cell runs through run_cell, which drives run_algorithm
        # directly: the tree is sweep -> cell -> record
        span_names = {s.name for s in _spans.finished}
        assert {"study.sweep", "sweep.cell", "perf.record"} <= span_names


def test_runs_and_rounds_counters():
    with telemetry.session() as (registry, _spans):
        study = Study(reps=2, trace_cache=False)
        study.run("cc", "internet", "titanv", Variant.BASELINE)
        labels = ("cc", "internet", "titanv", "baseline")
        assert registry.get("repro_perf_runs_total").value(*labels) == 2
        assert registry.get("repro_perf_rounds_total").value(*labels) > 0
        hist = registry.get("repro_runtime_ms").hist(*labels)
        assert hist.count == 2


# ----------------------------------------------------------------------
# The SIMT launch counters publish exactly a launch's LaunchStats
# ----------------------------------------------------------------------
def _mixed_kernel(ctx, data, ctr):
    i = ctx.tid
    v = yield ctx.load(data, i)
    again = yield ctx.load(data, i)  # served by the register cache
    yield ctx.store(data, i, v + again + 1, AccessKind.VOLATILE)
    if i % 2:  # under warp lockstep, the even lanes wait at the barrier
        yield ctx.load(data, i, AccessKind.VOLATILE)
    yield ctx.barrier()
    yield ctx.atomic_rmw(ctr, 0, RMWOp.ADD, 1)
    yield ctx.load(data, (i + 1) % ctx.num_threads, AccessKind.ATOMIC)


@pytest.mark.parametrize("tier, options", [
    ("interp", {"batch": False}),
    ("interp", {"batch": False, "warp_lockstep": True}),
    ("batched", {"batch": True}),
])
def test_simt_launch_counters_publish_launch_stats(tier, options):
    with telemetry.session() as (registry, _spans):
        mem = GlobalMemory()
        data = mem.alloc("data", 64, DType.I32)
        ctr = mem.alloc("ctr", 1, DType.I32)
        executor = SimtExecutor(mem, **options)
        stats = executor.launch(_mixed_kernel, 64, data, ctr,
                                block_dim=32)
        launches = executor.batch_stats
        assert (launches.batched_launches if tier == "batched"
                else launches.interp_launches) == 1
        assert stats.register_hits and stats.barriers and stats.rmws
        assert bool(stats.divergent_steps) == ("warp_lockstep" in options)

        def value(family):
            return registry.get(family).value("_mixed_kernel")

        assert value("repro_simt_launches_total") == 1
        assert value("repro_simt_steps_total") == stats.steps
        assert value("repro_simt_register_hits_total") == stats.register_hits
        assert value("repro_simt_barriers_total") == stats.barriers
        assert (value("repro_simt_divergent_steps_total")
                == stats.divergent_steps)
        expected = {("_mixed_kernel", kind.value, op): count
                    for op, counts in (("load", stats.loads),
                                       ("store", stats.stores))
                    for kind, count in counts.items() if count}
        expected[("_mixed_kernel", "atomic", "rmw")] = stats.rmws
        accesses = registry.get("repro_simt_accesses_total")
        assert dict(accesses.samples()) == expected


def _catalog_families() -> set[str]:
    """Every family ``docs/observability.md``'s metric catalog names."""
    doc = Path(__file__).parents[1] / "docs" / "observability.md"
    section = doc.read_text().split("## Metric catalog", 1)[1]
    section = section.split("\n## ", 1)[0]
    return {name for line in section.splitlines() if line.startswith("| `")
            for name in re.findall(r"`(repro_\w+)`", line.split("|")[1])}


def _source_families() -> set[str]:
    """Every ``"repro_…"`` family-name literal in ``src/``."""
    src = Path(__file__).parents[1] / "src"
    return {node.value for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"repro_[a-z0-9_]+", node.value)}


def test_catalog_matches_source_families():
    source, catalog = _source_families(), _catalog_families()
    assert "repro_l1_hit_rate" in source
    assert source - catalog == set(), "emitted but not documented"
    assert catalog - source == set(), "documented but never emitted"


def test_repair_registers_only_cataloged_families():
    from repro.repair import repair

    with telemetry.session() as (registry, _spans):
        repair("twophase", budget="smoke")
        registered = {family.name for family in registry.families()}
    assert "repro_repair_verifications_total" in registered
    assert registered - _catalog_families() == set()
