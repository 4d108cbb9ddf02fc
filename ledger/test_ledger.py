"""Tests of the layer ledger's own helpers.

    PYTHONPATH=src python3 -m pytest ledger -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import common

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _span(sid, parent, name, start, dur, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start_s": start,
            "duration_s": dur, "attrs": attrs}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("r", None, "ledger.iteration", 0.0, 10.0),
        _span("s", "r", "study.sweep", 1.0, 8.0),
        _span("p", "s", "perf.record", 2.0, 3.0),
        _span("g", "p", "graphs.load", 2.5, 1.0),
        _span("t", "s", "trace.lookup", 5.0, 1.0),
    ]
    own = common.self_times(spans)
    assert own == {0: 2.0, 1: 4.0, 2: 2.0, 3: 1.0, 4: 1.0}
    layers = common.fold_layers(spans, wall_s=10.0)["layers"]
    assert layers == pytest.approx({"study": 4.0, "perf.record": 2.0,
                                    "graphs": 1.0, "trace": 1.0,
                                    "unattributed": 2.0})
    assert sum(layers.values()) == pytest.approx(10.0)
    assert common.top_layer(layers) == "study"


def test_pool_worker_spans_fold_by_lane_share():
    spans = [
        _span("r", None, "ledger.iteration", 0.0, 6.0),
        _span("pool", "r", "parallel.pool", 1.0, 4.0, jobs=2),
        _span("ck", "pool", "resilience.checkpoint", 4.5, 0.5),
        # worker A: a 3 s cell holding a 2 s recording (finish order)
        _span("a1", "a", "perf.record", 1.3, 2.0, worker="11"),
        _span("a", None, "sweep.cell", 1.2, 3.0, worker="11"),
        # worker B reuses span ids: ids are only unique per process
        _span("a1", "a", "perf.record", 1.2, 1.0, worker="12"),
        _span("a", None, "sweep.cell", 1.1, 2.0, worker="12"),
    ]
    folded = common.fold_layers(spans, wall_s=6.0)
    layers = folded["layers"]
    # pool self 3.5 s; lanes 5 s / 2 workers = 2.5 s
    assert layers["perf.record"] == pytest.approx(1.5)
    assert layers["study"] == pytest.approx(1.0)
    assert layers["parallel"] == pytest.approx(1.0)
    assert layers["resilience"] == pytest.approx(0.5)
    assert layers["unattributed"] == pytest.approx(2.0)
    assert sum(layers.values()) == pytest.approx(6.0)
    assert folded["pool"] == {"busy_s": 5.0, "capacity_s": 8.0}


def test_tasks_on_one_worker_reusing_span_ids_keep_their_self_time():
    # a worker clears its recorder after each task, so its second task
    # repeats the first one's ids; spans arrive in finish order
    spans = [
        _span("a1", "a", "perf.record", 1.1, 2.0, worker="11"),
        _span("a", None, "sweep.cell", 1.0, 3.0, worker="11"),
        _span("a1", "a", "perf.record", 4.1, 0.5, worker="11"),
        _span("a", None, "sweep.cell", 4.0, 1.0, worker="11"),
    ]
    assert common.span_scopes(spans) == [("11", 0), ("11", 0),
                                         ("11", 1), ("11", 1)]
    assert common.self_times(spans) == pytest.approx(
        {0: 2.0, 1: 1.0, 2: 0.5, 3: 0.5})


def test_p90_is_resolved_only_with_ten_samples_beyond_it():
    assert common.samples_beyond(100, 0.9) == 10
    assert common.p90_is_resolved(100)
    assert not common.p90_is_resolved(99)
    assert not common.p90_is_resolved(8)
    values = list(range(1, 101))
    assert common.nearest_rank(values, 0.9) == 90
    assert common.nearest_rank([5.0], 0.9) == 5.0


def test_sweep_digest_fails_on_one_perturbed_runtime():
    reference = json.loads((HERE / "reference" / "cells.json").read_text())
    grid = common.sweep_grid(7)
    index = common.cell_index(reference)
    records = common.expected_sweep_records(index, common.DEVICES, grid)
    text = common.results_text(common.REPS, 1.0, records)
    assert common.digest(text) == common.digest(
        common.results_text(common.REPS, 1.0, copy.deepcopy(records)))

    perturbed = copy.deepcopy(records)
    perturbed[17]["runtimes_ms"][1] *= 1 + 1e-12
    assert common.digest(common.results_text(
        common.REPS, 1.0, perturbed)) != common.digest(text)


def test_sweep_grid_permutes_inputs_only():
    a, b = common.sweep_grid(1), common.sweep_grid(2)
    assert [sorted(t[1]) for t in a] == [sorted(t[1]) for t in b]
    assert a != b
    assert a == common.sweep_grid(1)


def _cells(study):
    return {(a, i, study["device"]) for a in study["algorithms"]
            for i in study["inputs"]}


def test_study_sequence_is_seeded_and_every_study_brings_fresh_work():
    fresh = common.serve_fresh_cells()
    seq = common.study_sequence(5, fresh, common.SERVE_BASE)
    assert seq == common.study_sequence(5, fresh, common.SERVE_BASE)
    assert seq != common.study_sequence(6, fresh, common.SERVE_BASE)
    assert sum(len(q) for q in seq) >= 100

    primed = set()
    for study in common.priming_studies(common.SERVE_BASE, common.DEVICES):
        primed |= _cells(study)
    fresh_set = set(fresh)
    requested: set = set()
    for client in seq:
        received = set(primed)
        for study in client:
            cells = _cells(study)
            new = cells & fresh_set - requested
            assert len(new) == 1
            assert cells - new <= received
            requested |= cells
            received |= cells
    assert requested & fresh_set == fresh_set

    for client in seq:
        phases = [common.phase_of(client, p, common.SERVE_PHASES)
                  for p in range(common.SERVE_PHASES)]
        assert [study for phase in phases for study in phase] == client
        assert all(phases)


def test_explore_guard_flags_only_the_wall_clock_cap():
    tracing = pytest.importorskip("tracing")
    budget = SimpleNamespace(max_schedules=60, max_seconds=10.0)

    def result(**kw):
        base = dict(schedules=5, total_steps=100, truncated_runs=0,
                    redundant_pruned=0, wall_seconds=1.0, budget=budget,
                    complete=False, stopped_early=False)
        return SimpleNamespace(**{**base, **kw})

    assert tracing._explore_attrs(result(wall_seconds=10.2))["time_capped"]
    assert not tracing._explore_attrs(result(complete=True))["time_capped"]
    assert not tracing._explore_attrs(result(schedules=60))["time_capped"]
    assert not tracing._explore_attrs(
        result(stopped_early=True))["time_capped"]


def test_each_piece_is_scaled_by_the_probe_readings_around_it():
    workloads = pytest.importorskip("workloads")
    ref = common.PROBE_REF_S
    readings = iter([ref, 3 * ref, ref])
    probe = SimpleNamespace(read=lambda: next(readings))
    clock = iter([0.0, 4.0, 4.0, 5.0])
    region = workloads.TimedRegion(probe, cpu=lambda: next(clock))
    for _ in range(2):
        with region.piece():
            pass
    timed = region.as_dict()
    # 4 s at twice the reference probe time, then 1 s at twice again
    assert timed["raw_cpu_s"] == pytest.approx(5.0)
    assert timed["cpu_s"] == pytest.approx(2.5)
    assert timed["probe_s"] == [ref, 3 * ref, ref]
    assert len(region.walls) == 2


def test_host_probe_reads_a_positive_time_and_stops_its_processes():
    import multiprocessing

    probe = common.HostProbe(rounds=1)
    try:
        assert probe.read() > 0.0
    finally:
        probe.close()
    assert multiprocessing.active_children() == []


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        common.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(common.PER_LAYER)
