"""Tests for the parallel sweep executor (repro.core.parallel).

The contract: a ``jobs > 1`` sweep produces byte-identical artifacts
(saved results, published store records, speedup cells) to the serial
path — the
pool only changes wall-clock, never results.
"""

from __future__ import annotations

import pytest

from repro import ResilientStudy, Study, telemetry
from repro.cli import main as cli_main
from repro.core import parallel
from repro.core.parallel import JOBS_ENV, resolve_jobs
from repro.core.study import SpeedupCell
from repro.errors import StudyError
from repro.gpu.faults import FaultPlan

ALGOS = ["cc", "mis"]
INPUTS = ["internet", "USA-road-d.NY"]
DEVICE = "titanv"


#: the file :func:`_logged_run_task` appends to, set per test
_EXECUTION_LOG = None
_RUN_TASK = parallel._run_task


def _logged_run_task(task, generation=0):
    """``_run_task`` logging one line per execution.  Module-level, so
    the pool pickles it by name and forked workers resolve it."""
    with open(_EXECUTION_LOG, "a") as log:
        log.write("/".join(parallel._task_key(task)) + "\n")
    return _RUN_TASK(task, generation)


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
        # a second pass needs no pool: everything is memoized
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


class TestOneGenerationPerCleanPool:
    def test_each_task_executes_once(self, tmp_path, monkeypatch):
        log = tmp_path / "executions.log"
        monkeypatch.setitem(globals(), "_EXECUTION_LOG", str(log))
        monkeypatch.setattr(parallel, "_run_task", _logged_run_task)
        ResilientStudy(reps=1).sweep(DEVICE, ALGOS, INPUTS, jobs=2)
        assert sorted(log.read_text().splitlines()) == sorted(
            f"{a}/{i}/{DEVICE}" for i in INPUTS for a in ALGOS)

    def test_clean_pool_never_respawns(self):
        with telemetry.session() as (registry, _spans):
            study = ResilientStudy(reps=1)
            study.pool_respawn_budget = 0
            result = study.sweep(DEVICE, ALGOS, INPUTS, jobs=2)
            assert registry.get("repro_host_pool_respawns_total") is None
        assert result.coverage[0] == result.coverage[1] == 4


def test_cli_sweep_jobs_smoke(capsys):
    rc = cli_main(["sweep", "--device", DEVICE, "--inputs", "internet",
                   "--reps", "1", "--jobs", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Resilient speedups" in out
