"""Tests for the parallel sweep executor (repro.core.parallel).

The contract: a ``jobs > 1`` sweep produces byte-identical artifacts
(saved results, published store records, speedup cells) to the serial
path — the workers only change wall-clock, never results.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import time

import pytest

from repro import ResilientStudy, Study, telemetry
from repro.cli import main as cli_main
from repro.core import parallel
from repro.core.parallel import JOBS_ENV, resolve_jobs
from repro.core.resilience import CellBudget
from repro.core.study import SpeedupCell
from repro.errors import StudyError, SweepInterrupted, WorkerTaskError
from repro.gpu.faults import FaultPlan
from repro.graphs.generators import grid2d
from repro.graphs.suite import load_suite_graph

ALGOS = ["cc", "mis"]
INPUTS = ["internet", "USA-road-d.NY"]
DEVICE = "titanv"


#: the file :func:`_logged_run_task` appends to, set per test
_EXECUTION_LOG = None
_RUN_TASK = parallel._run_task


def _logged_run_task(task, generation=0):
    """``_run_task`` logging one line per execution.  Module-level, so
    forked workers resolve it by name."""
    with open(_EXECUTION_LOG, "a") as log:
        log.write("/".join(parallel._task_key(task)) + "\n")
    return _RUN_TASK(task, generation)


def _log_executions(tmp_path, monkeypatch):
    """Route every worker task through :func:`_logged_run_task`; returns
    a function reading the log as a list of ``algo/input/device``."""
    log = tmp_path / "executions.log"
    monkeypatch.setitem(globals(), "_EXECUTION_LOG", str(log))
    monkeypatch.setattr(parallel, "_run_task", _logged_run_task)
    return lambda: (sorted(log.read_text().splitlines())
                    if log.exists() else [])


def _cells(cells):
    return [(c.algorithm, c.input_name, c.device_key, c.baseline_ms,
             c.racefree_ms) for c in cells if isinstance(c, SpeedupCell)]


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(StudyError):
            resolve_jobs()
        with pytest.raises(StudyError):
            resolve_jobs(0)


class TestParallelStudy:
    def test_speedup_table_byte_identical_to_serial(self, tmp_path):
        serial = Study(reps=2)
        cells_1 = serial.speedup_table(DEVICE, ALGOS, INPUTS, jobs=1)
        serial.save_results(tmp_path / "serial.json")

        parallel = Study(reps=2)
        cells_4 = parallel.speedup_table(DEVICE, ALGOS, INPUTS, jobs=4)
        parallel.save_results(tmp_path / "parallel.json")

        assert _cells(cells_1) == _cells(cells_4)
        assert (tmp_path / "serial.json").read_bytes() == \
            (tmp_path / "parallel.json").read_bytes()

    def test_parallel_fills_the_memo(self):
        study = Study(reps=1)
        study.speedup_table(DEVICE, ALGOS, INPUTS, jobs=2)
        # a second pass needs no worker: everything is memoized
        again = study.speedup_table(DEVICE, ALGOS, INPUTS, jobs=1)
        assert len(again) == len(ALGOS) * len(INPUTS)


def _store_bytes(store_dir) -> dict[str, bytes]:
    """Every published record of a checkpoint store, by file name."""
    return {p.name: p.read_bytes()
            for p in sorted(store_dir.glob("cell-*.json"))}


class TestParallelResilientStudy:
    def test_sweep_and_checkpoint_identical_to_serial(self, tmp_path):
        serial = ResilientStudy(reps=2, checkpoint=tmp_path / "serial")
        s_cells = serial.sweep(DEVICE, ALGOS, INPUTS, jobs=1).cells

        parallel = ResilientStudy(reps=2, checkpoint=tmp_path / "parallel")
        p_cells = parallel.sweep(DEVICE, ALGOS, INPUTS, jobs=2).cells

        assert _cells(s_cells) == _cells(p_cells)
        assert _store_bytes(tmp_path / "serial") == \
            _store_bytes(tmp_path / "parallel")
        assert len(_store_bytes(tmp_path / "serial")) == \
            len(ALGOS) * len(INPUTS)
        assert parallel.cells_executed == serial.cells_executed

    def test_resume_executes_only_missing_cells(self, tmp_path):
        store_dir = tmp_path / "store"
        first = ResilientStudy(reps=1, checkpoint=store_dir)
        first.sweep(DEVICE, ALGOS, INPUTS, jobs=2)

        resumed = ResilientStudy(reps=1, checkpoint=store_dir)
        result = resumed.sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert resumed.cells_executed == 0
        assert _cells(result.cells) == _cells(
            first.sweep(DEVICE, ALGOS, INPUTS).cells)

    def test_fault_plan_identical_to_serial(self, tmp_path):
        """Workers derive injected fault streams from the plan seed and
        the cell key, so injection commutes with parallelism."""
        faults = FaultPlan.parse("stall=1.0", seed=3)
        serial = ResilientStudy(reps=2, faults=faults)
        s = serial.sweep(DEVICE, ALGOS, INPUTS, jobs=1)
        parallel = ResilientStudy(reps=2, faults=faults)
        p = parallel.sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert _cells(s.cells) == _cells(p.cells)
        serial.save_results(tmp_path / "s.json")
        parallel.save_results(tmp_path / "p.json")
        assert (tmp_path / "s.json").read_bytes() == \
            (tmp_path / "p.json").read_bytes()

    def test_shared_disk_traces_across_workers(self, tmp_path):
        """Pool workers share one on-disk trace directory, so a second
        parallel study replays instead of re-recording."""
        trace_dir = tmp_path / "traces"
        first = ResilientStudy(reps=1, trace_cache=trace_dir)
        cells_a = first.sweep(DEVICE, ALGOS, INPUTS, jobs=2).cells
        assert any(trace_dir.glob("trace-*.json"))

        second = ResilientStudy(reps=1, trace_cache=trace_dir)
        cells_b = second.sweep(DEVICE, ALGOS, INPUTS, jobs=2).cells
        assert _cells(cells_a) == _cells(cells_b)


class TestOneGenerationPerCleanFleet:
    def test_each_task_executes_once(self, tmp_path, monkeypatch):
        executions = _log_executions(tmp_path, monkeypatch)
        ResilientStudy(reps=1).sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert executions() == sorted(
            f"{a}/{i}/{DEVICE}" for i in INPUTS for a in ALGOS)

    def test_clean_fleet_never_respawns(self):
        with telemetry.session() as (registry, _spans):
            result = ResilientStudy(reps=1).sweep(DEVICE, ALGOS, INPUTS,
                                                  jobs=2)
            assert registry.get("repro_fleet_respawns_total") is None
            assert registry.get("repro_fleet_redispatches_total") is None
        assert result.coverage[0] == result.coverage[1] == 4

    def test_workers_run_under_the_study_budget(self):
        """Each worker task runs under the parent's cell budget: a
        wall-clock budget too short for one repetition fails every
        cell with ``timeout``, as the serial sweep does."""
        budget = CellBudget(max_seconds=1e-9)
        serial = ResilientStudy(reps=2, budget=budget).sweep(
            DEVICE, ALGOS, INPUTS, jobs=1)
        par = ResilientStudy(reps=2, budget=budget).sweep(
            DEVICE, ALGOS, INPUTS, jobs=2)
        assert [c.describe() for c in par.failures] == \
            [c.describe() for c in serial.failures]
        assert {c.reason for c in par.failures} == {"timeout"}
        assert len(par.failures) == len(ALGOS) * len(INPUTS)


def test_cli_sweep_jobs_smoke(capsys):
    rc = cli_main(["sweep", "--device", DEVICE, "--inputs", "internet",
                   "--reps", "1", "--jobs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Resilient speedups" in out


# ----------------------------------------------------------------------
# Multi-device sweeps: cells whose traces are all cached are priced in
# the parent, and only cells that must record reach a worker
# ----------------------------------------------------------------------
#: titanv and a100 share a staleness class (3), 2070super is in another
#: (2): after titanv, 2070super must record baseline mis again, and
#: a100 records nothing
DEVICES = ["titanv", "2070super", "a100"]


def _device_sweep(tmp_path, name: str, jobs: int, *, resilient=True,
                  inputs=INPUTS, between=None, **kwargs):
    """The ALGOS grid on every device of DEVICES, one table each, with
    a trace directory (and, resilient, a checkpoint store); returns
    (study, save_results bytes, store records).
    ``between(device, trace_dir)`` runs before each device's table."""
    trace_dir = tmp_path / f"{name}-traces"
    if resilient:
        study = ResilientStudy(reps=2, trace_cache=trace_dir,
                               checkpoint=tmp_path / f"{name}-store",
                               **kwargs)
    else:
        study = Study(reps=2, trace_cache=trace_dir, **kwargs)
    for device in DEVICES:
        if between is not None:
            between(device, trace_dir)
        if resilient:
            study.sweep(device, ALGOS, inputs, jobs=jobs)
        else:
            study.speedup_table(device, ALGOS, inputs, jobs=jobs)
    study.save_results(tmp_path / f"{name}.json")
    store = (_store_bytes(tmp_path / f"{name}-store") if resilient
             else {})
    return study, (tmp_path / f"{name}.json").read_bytes(), store


def _sweep_sources(spans) -> dict[str, dict]:
    """Device -> the stored/replayed/dispatched counts of its
    ``study.sweep`` span."""
    return {sp.attrs["device"]: {k: sp.attrs.get(k) for k in
                                 ("stored", "replayed", "dispatched")}
            for sp in spans.finished if sp.name == "study.sweep"}


def _table(study, device: str, inputs, jobs: int) -> list:
    """One table's speedup cells, through ``sweep`` for a resilient
    study and ``speedup_table`` for a plain one."""
    if isinstance(study, ResilientStudy):
        return study.sweep(device, ["cc"], inputs, jobs=jobs).cells
    return study.speedup_table(device, ["cc"], inputs, jobs=jobs)


def _clash_study(tmp_path, resilient: bool, **kwargs):
    if resilient:
        return ResilientStudy(reps=1, checkpoint=tmp_path / "store",
                              **kwargs)
    return Study(reps=1, **kwargs)


@pytest.mark.parametrize("resilient", [False, True],
                         ids=["study", "resilient"])
class TestNameClashUnderJobs:
    """A graph passed in directly under a suite input's name meets the
    serial path's memo under ``--jobs`` too: after the suite input it
    is refused, and before it the suite input reads its results."""

    def test_a_direct_graph_after_the_suite_input_is_refused(
            self, tmp_path, resilient):
        study = _clash_study(tmp_path, resilient, trace_cache=False)
        with pytest.raises(StudyError, match="already used"):
            _table(study, DEVICE, ["internet", grid2d(12, name="internet")],
                   jobs=2)

    def test_the_suite_input_after_a_direct_graph_reads_its_memo(
            self, tmp_path, monkeypatch, resilient):
        inputs = [grid2d(12, name="internet"), "internet"]
        serial = _table(_clash_study(tmp_path / "serial", resilient,
                                     trace_cache=False),
                        DEVICE, inputs, jobs=1)
        executions = _log_executions(tmp_path, monkeypatch)
        par = _table(_clash_study(tmp_path / "parallel", resilient,
                                  trace_cache=False),
                     DEVICE, inputs, jobs=2)
        assert _cells(par) == _cells(serial)
        assert len(_cells(par)) == 2
        # one task, the direct graph's: no worker can answer the suite
        # input from its own memo in one schedule and not in another
        assert executions() == [f"cc/internet/{DEVICE}"]

    def test_the_suite_input_on_a_later_device_is_refused(
            self, tmp_path, resilient):
        """The parent prices a suite input's cached cells only under a
        fingerprint built for that suite input, never under a direct
        graph's that took its name first."""
        study = _clash_study(tmp_path, resilient,
                             trace_cache=tmp_path / "traces")
        _table(study, "titanv", [grid2d(12, name="internet")], jobs=2)
        with pytest.raises(StudyError, match="already used"):
            _table(study, "a100", ["internet"], jobs=2)


class TestReplayOnlyCellsStayInTheParent:
    @pytest.mark.parametrize("resilient", [True, False],
                             ids=["resilient", "study"])
    def test_only_cells_that_record_are_dispatched(
            self, tmp_path, monkeypatch, resilient):
        serial, s_bytes, s_store = _device_sweep(
            tmp_path, "serial", 1, resilient=resilient)
        executions = _log_executions(tmp_path, monkeypatch)
        with telemetry.session() as (_registry, spans):
            par, p_bytes, p_store = _device_sweep(
                tmp_path, "parallel", 2, resilient=resilient)
            sources = _sweep_sources(spans)

        assert p_bytes == s_bytes
        assert p_store == s_store
        if resilient:
            assert len(p_store) == len(ALGOS) * len(INPUTS) * len(DEVICES)
            assert par.cells_executed == serial.cells_executed == 24
        assert executions() == sorted(
            [f"{a}/{i}/titanv" for a in ALGOS for i in INPUTS]
            + [f"mis/{i}/2070super" for i in INPUTS])
        assert sources == {
            "titanv": {"stored": 0, "replayed": 0, "dispatched": 4},
            "2070super": {"stored": 0, "replayed": 2, "dispatched": 2},
            "a100": {"stored": 0, "replayed": 4, "dispatched": 0},
        }

    def test_a_fresh_study_on_the_same_traces_dispatches_everything(
            self, tmp_path, monkeypatch):
        """Fingerprints are never read from disk: a new study learns
        them from its own workers."""
        trace_dir = tmp_path / "traces"
        ResilientStudy(reps=1, trace_cache=trace_dir).sweep(
            DEVICE, ALGOS, INPUTS, jobs=2)
        executions = _log_executions(tmp_path, monkeypatch)
        ResilientStudy(reps=1, trace_cache=trace_dir).sweep(
            DEVICE, ALGOS, INPUTS, jobs=2)
        assert executions() == sorted(
            f"{a}/{i}/{DEVICE}" for a in ALGOS for i in INPUTS)


def _trace_files(trace_dir, algorithm: str, **match) -> list:
    """The trace files of ``algorithm`` whose payload matches
    ``match``."""
    import json

    found = []
    for path in sorted(trace_dir.glob("trace-*.json")):
        payload = json.loads(path.read_text())
        if payload["algorithm"] == algorithm and all(
                payload[k] == v for k, v in match.items()):
            found.append(path)
    return found


class TestTheParentServesOnlyWhatItShould:
    def test_removed_traces_are_recorded_again(self, tmp_path,
                                               monkeypatch):
        _, s_bytes, s_store = _device_sweep(tmp_path, "serial", 1)

        def drop_mis_traces(device, trace_dir):
            if device == "a100":
                for path in _trace_files(trace_dir, "mis"):
                    path.unlink()

        executions = _log_executions(tmp_path, monkeypatch)
        par, p_bytes, p_store = _device_sweep(
            tmp_path, "parallel", 2, between=drop_mis_traces)
        assert p_bytes == s_bytes and p_store == s_store
        a100 = [e for e in executions() if e.endswith("/a100")]
        assert a100 == sorted(f"mis/{i}/a100" for i in INPUTS)
        assert _trace_files(tmp_path / "parallel-traces", "mis")

    def test_a_torn_trace_is_quarantined_and_its_cell_dispatched(
            self, tmp_path, monkeypatch):
        _, s_bytes, s_store = _device_sweep(tmp_path, "serial", 1)
        internet = load_suite_graph("internet").fingerprint()

        def tear_a_titanv_mis_trace(device, trace_dir):
            # 2070super (another staleness class) never read it, so the
            # parent's first read of it is a100's lookup
            if device == "a100":
                path = _trace_files(trace_dir, "mis", graph_fp=internet,
                                    variant="baseline",
                                    staleness_rounds=3)[0]
                path.write_bytes(path.read_bytes()[:40])

        executions = _log_executions(tmp_path, monkeypatch)
        par, p_bytes, p_store = _device_sweep(
            tmp_path, "parallel", 2, between=tear_a_titanv_mis_trace)
        assert p_bytes == s_bytes and p_store == s_store
        assert par.trace_cache.quarantined == 1
        assert len(list((tmp_path / "parallel-traces").glob("*.corrupt"))) == 1
        a100 = [e for e in executions() if e.endswith("/a100")]
        assert a100 == ["mis/internet/a100"]

    @pytest.mark.parametrize("case", ["faults", "validate", "direct"])
    def test_every_cell_is_dispatched(self, tmp_path, monkeypatch, case):
        kwargs, inputs = {}, INPUTS
        if case == "faults":
            kwargs["faults"] = FaultPlan.parse("stall=1.0", seed=3)
        elif case == "validate":
            kwargs["validate"] = True
        else:
            inputs = [grid2d(12, name="grid"), grid2d(8, name="small")]
        _, s_bytes, _ = _device_sweep(tmp_path, "serial", 1,
                                      inputs=inputs, **kwargs)
        executions = _log_executions(tmp_path, monkeypatch)
        _, p_bytes, _ = _device_sweep(tmp_path, "parallel", 2,
                                      inputs=inputs, **kwargs)
        assert p_bytes == s_bytes
        names = [getattr(i, "name", i) for i in inputs]
        assert executions() == sorted(
            f"{a}/{i}/{d}" for a in ALGOS for i in names for d in DEVICES)


def _failing_run_task(task, generation=0):
    """``_run_task`` raising in the worker for every mis cell."""
    if task.algorithm == "mis":
        raise RuntimeError("harness fault")
    return _RUN_TASK(task, generation)


def test_parent_pricing_waits_for_the_merge(tmp_path, monkeypatch):
    """A cell the parent prices emits its telemetry when the merge
    reaches it, so the cells behind a failed task stay uncounted, as
    they stay out of the memo."""
    study = ResilientStudy(reps=1, trace_cache=tmp_path / "traces")
    study.sweep("titanv", ALGOS, INPUTS, jobs=2)
    monkeypatch.setattr(parallel, "_run_task", _failing_run_task)
    with telemetry.session() as (_registry, spans):
        # cc replays in the parent, mis records again on 2070super's
        # staleness: internet's cc merges, then internet's mis fails
        with pytest.raises(WorkerTaskError):
            study.sweep("2070super", ALGOS, INPUTS, jobs=2)
        priced = sorted((sp.attrs["algorithm"], sp.attrs["input"],
                         sp.attrs["variant"])
                        for sp in spans.finished if sp.name == "sweep.cell")
    merged = sorted((a, i, v.value) for a, i, d, v in study._results
                    if d == "2070super")
    assert priced == merged
    assert [(a, i) for a, i, _ in merged] == [("cc", "internet")] * 2


def _interrupting_run_task(task, generation=0):
    """``_run_task`` stalling in the worker; the cc cell's worker first
    interrupts the parent, as a Ctrl-C mid-sweep would."""
    if task.algorithm == "cc":
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)


class TestWorkersAreReaped:
    """However the sweep ends, no worker outlives it: the ledger counts
    only reaped children's CPU time and memory."""

    def test_after_a_normal_return(self):
        ResilientStudy(reps=1).sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert multiprocessing.active_children() == []

    def test_after_a_worker_task_error(self, monkeypatch):
        monkeypatch.setattr(parallel, "_run_task", _failing_run_task)
        with pytest.raises(WorkerTaskError, match="mis/internet/titanv"):
            ResilientStudy(reps=1).sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert multiprocessing.active_children() == []

    def test_after_an_interrupt(self, monkeypatch):
        monkeypatch.setattr(parallel, "_run_task", _interrupting_run_task)
        started = time.monotonic()
        with pytest.raises(SweepInterrupted):
            ResilientStudy(reps=1).sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert multiprocessing.active_children() == []
        # busy workers are killed, not waited for
        assert time.monotonic() - started < 30

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning")
    def test_after_an_interrupt_a_finalizer_swallowed(self, monkeypatch):
        """The parent is running a finalizer when the SIGINT lands, so
        the handler's exception is raised there and Python only reports
        it; the sweep still stops while it awaits the first cell."""
        from repro.core.fleet import Fleet

        study = ResilientStudy(reps=1)

        class Finalized:
            def __init__(self):
                self.cycle = self  # only the collector frees it

            def __del__(self):
                # the SIGINT lands in this loop, or in a finalizer of
                # garbage collected before this one
                deadline = time.monotonic() + 30
                while (study._interrupted is None
                       and time.monotonic() < deadline):
                    time.sleep(0.01)

        dispatch = Fleet.dispatch
        dispatched = []

        def dispatch_then_collect(fleet, task, budget_s=None):
            future = dispatch(fleet, task, budget_s)
            if not dispatched:  # a worker now runs the cc cell
                Finalized()
                gc.collect()
            dispatched.append(task)
            return future

        monkeypatch.setattr(parallel, "_run_task", _interrupting_run_task)
        monkeypatch.setattr(Fleet, "dispatch", dispatch_then_collect)
        started = time.monotonic()
        with pytest.raises(SweepInterrupted):
            study.sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 30
