"""Tests for worker-death-tolerant parallel sweeps (repro.core.parallel
on the repro.core.fleet supervisor) and the chaos harness
(repro.core.chaos).

Covers SIGKILLed and stalled workers recovering to byte-identical
results, cells lost twice failing instead of looping, worker-raised
exceptions wrapped as :class:`~repro.errors.WorkerTaskError` naming
the cell, the chaos
scenario suite's kind coverage, one end-to-end scenario run, and the
CLI wiring (``repro chaos`` exit codes, exit 3 on interruption).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.core import hostfaults
from repro.core.chaos import (
    ChaosOutcome,
    ChaosReport,
    run_scenario,
    scenario_suite,
)
from repro.core.hostfaults import HostFaultKind, HostFaultPlan
from repro.core.parallel import CellTask, execute_tasks
from repro.core.study import Study
from repro.errors import StudyError, SweepInterrupted, WorkerTaskError

DEVICE = "titanv"
INPUT = "internet"
ALGOS = ["cc", "mis"]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    hostfaults.uninstall()
    yield
    hostfaults.uninstall()


@pytest.fixture(scope="module")
def clean_bytes(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-clean")
    study = Study(reps=1)
    result = study.sweep(DEVICE, ALGOS, [INPUT])
    assert not result.failures
    out = root / "results.json"
    study.save_results(out)
    return out.read_bytes()


class TestWorkerDeathRecovery:
    def test_sigkilled_generation_recovers_byte_identically(
            self, tmp_path, clean_bytes):
        plan = HostFaultPlan.parse("kill=1.0", seed=0,
                                   disrupt_generations=1)
        with telemetry.session() as (registry, _spans):
            with hostfaults.installed(plan):
                study = Study(reps=1)
                result = study.sweep(DEVICE, ALGOS, [INPUT], jobs=2)
            # each of the two workers dies on its first cell; its slot
            # respawns and the cell runs once more, on the respawn
            for name in ("repro_fleet_respawns_total",
                         "repro_fleet_redispatches_total"):
                assert registry.get(name).value() == len(ALGOS)
        assert not result.failures
        assert result.coverage[0] == result.coverage[1]
        out = tmp_path / "results.json"
        study.save_results(out)
        assert out.read_bytes() == clean_bytes

    def test_stalled_workers_are_killed_past_the_deadline(
            self, tmp_path, clean_bytes):
        plan = HostFaultPlan.parse("stall=1.0", seed=0,
                                   stall_seconds=30.0,
                                   disrupt_generations=1)
        with hostfaults.installed(plan):
            study = Study(reps=1)
            study.pool_task_deadline_s = 0.5
            result = study.sweep(DEVICE, ALGOS, [INPUT], jobs=2)
        assert not result.failures
        out = tmp_path / "results.json"
        study.save_results(out)
        assert out.read_bytes() == clean_bytes

    def test_cells_lost_twice_fail_and_leave_no_worker(self):
        # no generation bound: every incarnation of every worker dies,
        # so each cell is lost, redispatched once and lost again
        plan = HostFaultPlan.parse("kill=1.0", seed=0)
        with hostfaults.installed(plan):
            result = Study(reps=1).sweep(DEVICE, ALGOS, [INPUT],
                                         jobs=2)
            assert result.coverage == (0, len(ALGOS))
            assert {f.reason for f in result.failures} == {"fleet"}
            assert multiprocessing.active_children() == []
            with pytest.raises(StudyError,
                               match=r"cc/internet/titanv lost twice"):
                Study(reps=1).speedup_table(DEVICE, ["cc"], [INPUT],
                                            jobs=2)
            assert multiprocessing.active_children() == []

    def test_worker_raised_error_names_the_cell(self):
        config = Study(reps=1)._worker_config()
        tasks = [CellTask("nope", INPUT, DEVICE, ("baseline",))]
        with pytest.raises(WorkerTaskError,
                           match=r"nope/internet/titanv"):
            execute_tasks(config, tasks, jobs=1, merge=lambda r: None)


class TestChaosHarness:
    def test_suite_covers_every_fault_kind(self):
        covered = set()
        for scenario in scenario_suite():
            covered |= scenario.kinds()
        assert covered == set(HostFaultKind)

    def test_store_record_scenario_end_to_end(self, tmp_path, clean_bytes):
        scenario = next(s for s in scenario_suite(jobs=2)
                        if s.name == "store-record")
        outcome = run_scenario(scenario, clean_bytes, tmp_path, DEVICE,
                               ALGOS, [INPUT], reps=1, seed=0)
        assert outcome.ok and outcome.identical
        assert "quarantined=1 resumed=2 reran=2" in outcome.detail
        assert "ok" in outcome.describe()

    def test_report_rendering(self):
        good = ChaosOutcome(scenario="torn-trace", ok=True,
                            identical=True, coverage=(4, 4), detail="d")
        bad = ChaosOutcome(scenario="combined", ok=False,
                           identical=False, coverage=(3, 4), detail="d")
        report = ChaosReport(outcomes=[good, bad],
                             kinds_covered=("kill", "torn"))
        assert not report.ok
        text = report.render()
        assert "DIVERGED" in text and "FAILURES" in text
        assert ChaosReport(outcomes=[good],
                           kinds_covered=("torn",)).ok


class TestCliWiring:
    def test_chaos_command_exit_codes(self, monkeypatch, capsys):
        class _FakeReport:
            def __init__(self, ok):
                self.ok = ok

            def render(self):
                return "fake chaos report"

        calls = {}

        def fake_run_chaos(**kwargs):
            calls.update(kwargs)
            return _FakeReport(calls["quick"])

        monkeypatch.setattr("repro.core.chaos.run_chaos", fake_run_chaos)
        assert cli_main(["chaos", "--quick"]) == 0
        assert calls["quick"] is True
        assert "fake chaos report" in capsys.readouterr().out
        assert cli_main(["chaos"]) == 1  # quick=False -> fake failure

    def test_interrupted_sweep_exits_3(self, monkeypatch, capsys):
        def fake_sweep(self, *args, **kwargs):
            raise SweepInterrupted("stopped by operator")

        monkeypatch.setattr(Study, "sweep", fake_sweep)
        rc = cli_main(["sweep", "--device", DEVICE, "--inputs", INPUT,
                       "--reps", "1"])
        assert rc == 3
        assert "interrupted: stopped by operator" in \
            capsys.readouterr().err
