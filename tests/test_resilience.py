"""Tests for the study's guarded cell path and its policy vocabulary
(repro.core.resilience).

Covers the run_guarded failure taxonomy, retry-with-fresh-seed
behavior, livelock-to-record conversion, per-cell isolation inside a
sweep, the strict views (run, speedup, speedup_table) serially and
under jobs, memory-model pricing on the one path, checkpoint/resume
(including the only-missing-cells guarantee and corrupt checkpoints),
degraded report rendering, and the bit-identical no-fault regression
of a retry/budget policy against the default one.
"""

from __future__ import annotations

import pytest

from repro.core.report import speedup_table
from repro.core.resilience import (
    CellBudget,
    CellFailure,
    run_guarded,
)
from repro.core.study import SpeedupCell, Study
from repro.core.variants import Variant
from repro.errors import (
    CellTimeoutError,
    DeadlockError,
    StudyError,
    TransientKernelFault,
    ValidationError,
)
from repro.gpu.faults import FaultPlan

DEVICE = "titanv"
INPUT = "internet"


class TestRunGuarded:
    def test_success_passes_value_through(self):
        value, failure = run_guarded(lambda attempt: 42)
        assert value == 42 and failure is None

    def test_transient_fault_retried_with_attempt_index(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise TransientKernelFault("boom")
            return "ok"

        value, failure = run_guarded(flaky, retries=3)
        assert value == "ok" and failure is None
        assert calls == [0, 1, 2]

    def test_retries_exhausted_reports_fault(self):
        def always(attempt):
            raise TransientKernelFault("still dead")

        value, failure = run_guarded(always, retries=2)
        assert value is None
        assert failure.reason == "fault"
        assert failure.attempts == 3
        assert "still dead" in failure.message

    def test_backoff_grows_with_full_jitter(self):
        sleeps = []

        def always(attempt):
            raise TransientKernelFault("x")

        run_guarded(always, retries=2, backoff_s=0.5,
                    sleep=sleeps.append)
        # no sleep after the final attempt; each delay is a full-jitter
        # draw from [0, base * 2**attempt)
        assert len(sleeps) == 2
        assert 0.0 <= sleeps[0] < 0.5
        assert 0.0 <= sleeps[1] < 1.0
        # the jitter stream is deterministic: a rerun sleeps identically
        repeat = []
        run_guarded(always, retries=2, backoff_s=0.5,
                    sleep=repeat.append)
        assert repeat == sleeps

    def test_explicit_backoff_policy_without_jitter(self):
        from repro.utils.backoff import BackoffPolicy

        sleeps = []

        def always(attempt):
            raise TransientKernelFault("x")

        run_guarded(always, retries=2,
                    backoff=BackoffPolicy(base_s=0.5, jitter=False),
                    sleep=sleeps.append)
        assert sleeps == [0.5, 1.0]  # the legacy fixed shape

    def test_backoff_never_sleeps_past_the_deadline(self):
        from repro.utils.backoff import BackoffPolicy

        sleeps = []

        def always(attempt):
            raise TransientKernelFault("x")

        run_guarded(always, retries=3,
                    backoff=BackoffPolicy(base_s=100.0, jitter=False),
                    budget=CellBudget(max_seconds=0.05),
                    sleep=sleeps.append)
        assert sleeps and all(s <= 0.05 for s in sleeps)

    def test_livelock_recorded_not_raised(self):
        def spin(attempt):
            raise DeadlockError("polling forever")

        value, failure = run_guarded(spin, retries=5)
        assert value is None
        assert failure.reason == "livelock"
        assert failure.attempts == 1  # livelocks are not retried

    def test_validation_and_timeout_reasons(self):
        _, f = run_guarded(lambda a: (_ for _ in ()).throw(
            ValidationError("bad")))
        assert f.reason == "validation"
        _, f = run_guarded(lambda a: (_ for _ in ()).throw(
            CellTimeoutError("slow")))
        assert f.reason == "timeout"

    def test_non_repro_errors_propagate(self):
        with pytest.raises(ZeroDivisionError):
            run_guarded(lambda a: 1 / 0)

    def test_wall_clock_budget_stops_retry_loop(self):
        def always(attempt):
            raise TransientKernelFault("x")

        _, failure = run_guarded(
            always, retries=50,
            budget=CellBudget(max_seconds=0.0))
        assert failure.reason in ("timeout", "fault")
        assert failure.attempts <= 2

    def test_simt_livelock_becomes_record(self, tiny_graph):
        # a real kernel-level execution under a tiny micro-step budget:
        # the executor's watchdog fires DeadlockError, which the guard
        # turns into a recorded livelock instead of a crash
        from repro.algorithms import cc
        from repro.gpu.memory import GlobalMemory
        from repro.gpu.simt import SimtExecutor

        def attempt(attempt_idx):
            ex = SimtExecutor(GlobalMemory(), record_events=False,
                              max_steps=50)
            return cc.run_simt(tiny_graph, Variant.BASELINE,
                               executor=ex)

        value, failure = run_guarded(attempt)
        assert value is None
        assert failure.reason == "livelock"
        assert "micro-steps" in failure.message


class TestCellIsolation:
    def test_failing_cell_does_not_stop_sweep(self):
        faults = FaultPlan.parse("stuck=1.0", seed=0)
        study = Study(reps=2, faults=faults)
        sweep = study.sweep(DEVICE, ["cc", "gc"], [INPUT])
        # cc baseline livelocks (plain polling loop); gc has no plain
        # shared loads, so its cells complete
        assert len(sweep.cells) == 2
        cc_cell, gc_cell = sweep.cells
        assert isinstance(cc_cell, CellFailure)
        assert cc_cell.reason == "livelock"
        assert isinstance(gc_cell, SpeedupCell)
        assert sweep.coverage == (1, 2)

    def test_surviving_variant_still_recorded(self):
        faults = FaultPlan.parse("stuck=1.0", seed=0)
        study = Study(reps=2, faults=faults)
        out = study.speedup_cell("cc", INPUT, DEVICE)
        assert isinstance(out, CellFailure)
        assert out.variant == "baseline"
        # the race-free half of the cell completed and is memoized
        free = study.run_cell("cc", INPUT, DEVICE, Variant.RACE_FREE)
        assert not isinstance(free, CellFailure)

    def test_failure_memoized_like_results(self):
        faults = FaultPlan.parse("stuck=1.0", seed=0)
        study = Study(reps=2, faults=faults)
        first = study.run_cell("cc", INPUT, DEVICE, Variant.BASELINE)
        executed = study.cells_executed
        again = study.run_cell("cc", INPUT, DEVICE, Variant.BASELINE)
        assert again is first
        assert study.cells_executed == executed

    def test_strict_run_raises_on_failure(self):
        faults = FaultPlan.parse("stuck=1.0", seed=0)
        study = Study(reps=2, faults=faults)
        with pytest.raises(StudyError, match=r"FAIL\(livelock\)"):
            study.run("cc", INPUT, DEVICE, Variant.BASELINE)

    def test_retry_absorbs_transient_abort(self):
        # abort=0.5: some attempt fails, a later one succeeds; with
        # enough retries the cell must complete
        faults = FaultPlan.parse("abort=0.5", seed=1)
        study = Study(reps=3, retries=8, faults=faults)
        out = study.run_cell("cc", INPUT, DEVICE, Variant.RACE_FREE)
        assert not isinstance(out, CellFailure)

    def test_retries_exhausted_is_fault(self):
        faults = FaultPlan.parse("abort=1.0", seed=0)
        study = Study(reps=1, retries=2, faults=faults)
        out = study.run_cell("cc", INPUT, DEVICE, Variant.BASELINE)
        assert isinstance(out, CellFailure)
        assert out.reason == "fault"
        assert out.attempts == 3

    def test_negative_retries_rejected(self):
        with pytest.raises(StudyError, match="retries"):
            Study(retries=-1)


class TestBitIdentity:
    def test_unfaulted_resilient_study_matches_plain_study(self):
        plain = Study(reps=3)
        resilient = Study(reps=3, retries=2,
                          budget=CellBudget(max_seconds=60))
        for variant in (Variant.BASELINE, Variant.RACE_FREE):
            a = plain.run("cc", INPUT, DEVICE, variant)
            b = resilient.run("cc", INPUT, DEVICE, variant)
            assert a.runtimes_ms == b.runtimes_ms  # exact, not approx

    def test_table_iv_cells_identical(self):
        plain = Study(reps=2)
        resilient = Study(reps=2)
        algos = ["cc", "gc", "mis", "mst"]
        expected = plain.speedup_table(DEVICE, algos, [INPUT])
        got = resilient.sweep(DEVICE, algos, [INPUT])
        assert got.failures == []
        for e, g in zip(expected, got.completed):
            assert (e.algorithm, e.input_name) == (g.algorithm,
                                                   g.input_name)
            assert e.baseline_ms == g.baseline_ms
            assert e.racefree_ms == g.racefree_ms


def _corrupt_cc(monkeypatch):
    """Register a cc whose runner zeroes every label, so validation
    fails every repetition; forked workers inherit the registry."""
    import dataclasses

    import numpy as np

    from repro.core import variants as variants_mod

    real = variants_mod.get_algorithm("cc")

    def corrupted(graph, recorder, **options):
        out = real.perf_runner(graph, recorder, **options)
        out["labels"] = np.zeros_like(out["labels"])
        return out

    fake = dataclasses.replace(real, perf_runner=corrupted)
    monkeypatch.setattr(variants_mod, "_REGISTRY",
                        {**variants_mod._REGISTRY, "cc": fake})


class TestOneStudy:
    """Every cell runs through one guarded path: the strict views raise
    one error serially and under jobs, and every study takes the
    policy (faults, budgets) and the memory model."""

    def test_strict_table_raises_the_same_error_serial_and_parallel(
            self, monkeypatch):
        _corrupt_cc(monkeypatch)
        errors = []
        for jobs in (1, 2):
            study = Study(reps=1, validate=True, trace_cache=False)
            with pytest.raises(StudyError) as info:
                study.speedup_table(DEVICE, ["cc"],
                                    [INPUT, "rmat16.sym"], jobs=jobs)
            errors.append(str(info.value))
        # internet is connected, so its all-zero labels validate
        assert errors[0] == errors[1]
        assert errors[0].startswith(
            f"FAIL(validation) cc/rmat16.sym/{DEVICE}/baseline: ")

    def test_faults_on_any_study(self):
        faults = FaultPlan.parse("abort=1.0", seed=1)
        cells = Study(reps=1, faults=faults).sweep(
            DEVICE, ["cc", "mis"], [INPUT]).cells
        assert [c.describe() for c in cells] == [
            f"FAIL(fault) cc/{INPUT}/{DEVICE}/baseline",
            f"FAIL(fault) mis/{INPUT}/{DEVICE}/baseline"]
        with pytest.raises(StudyError,
                           match=r"^FAIL\(fault\) cc/internet/titanv/"
                                 r"baseline: "):
            Study(reps=1, faults=faults).speedup_table(
                DEVICE, ["cc", "mis"], [INPUT])

    def test_model_priced_sweep_matches_its_speedup(self):
        study = Study(reps=2, memory_model="sc")
        (cell,) = study.sweep(DEVICE, ["mis"], [INPUT]).cells
        assert cell == study.speedup("mis", INPUT, DEVICE)
        default = Study(reps=2).speedup("mis", INPUT, DEVICE)
        assert cell.speedup != default.speedup

    def test_model_priced_study_refuses_a_checkpoint(self, tmp_path):
        with pytest.raises(StudyError, match="memory-model"):
            Study(memory_model="sc", checkpoint=tmp_path)

    def test_the_former_name_is_the_one_class(self):
        import repro.core.resilience as resilience
        import repro.core.study as study

        assert resilience.ResilientStudy is study.Study


class TestCheckpointResume:
    def test_resume_runs_only_missing_cells(self, tmp_path):
        ck = tmp_path / "store"
        first = Study(reps=2, checkpoint=ck)
        first.sweep(DEVICE, ["cc", "gc"], [INPUT])
        assert first.cells_executed == 4  # 2 algos x 2 variants

        # "crash" and resume: a fresh study on the same checkpoint
        # serves the published cells, and a wider sweep executes only
        # the genuinely new ones
        second = Study(reps=2, checkpoint=ck)
        second.sweep(DEVICE, ["cc", "gc"], [INPUT])
        assert (second.cells_executed, second.cells_resumed) == (0, 4)
        second.sweep(DEVICE, ["cc", "gc", "mis"], [INPUT])
        assert second.cells_executed == 2  # just mis x 2 variants

    def test_resumed_results_match_fresh_run(self, tmp_path):
        ck = tmp_path / "store"
        first = Study(reps=2, checkpoint=ck)
        fresh = first.sweep(DEVICE, ["cc"], [INPUT])

        second = Study(reps=2, checkpoint=ck)
        resumed = second.sweep(DEVICE, ["cc"], [INPUT])
        assert second.cells_executed == 0
        assert resumed.completed[0].baseline_ms == \
            fresh.completed[0].baseline_ms
        assert resumed.completed[0].racefree_ms == \
            fresh.completed[0].racefree_ms

    def test_failures_are_reattempted_on_resume(self, tmp_path):
        ck = tmp_path / "store"
        faults = FaultPlan.parse("stuck=1.0", seed=0)
        first = Study(reps=2, faults=faults, checkpoint=ck)
        first.sweep(DEVICE, ["cc"], [INPUT])
        assert len(first.failures()) == 1
        assert not list(ck.glob("cell-*.json"))  # failures never publish

        # the deterministic plan reaches the same failure again
        second = Study(reps=2, faults=faults, checkpoint=ck)
        out = second.run_cell("cc", INPUT, DEVICE, Variant.BASELINE)
        assert isinstance(out, CellFailure)
        assert out.reason == "livelock"
        assert second.cells_executed == 1

    def test_checkpoint_written_after_every_cell(self, tmp_path):
        ck = tmp_path / "store"
        study = Study(reps=1, checkpoint=ck)
        study.run_cell("cc", INPUT, DEVICE, Variant.BASELINE)
        assert not list(ck.glob("cell-*.json"))  # the cell is unfinished
        study.run_cell("cc", INPUT, DEVICE, Variant.RACE_FREE)
        assert len(list(ck.glob("cell-*.json"))) == 1
        study.run_cell("gc", INPUT, DEVICE, Variant.BASELINE)
        study.run_cell("gc", INPUT, DEVICE, Variant.RACE_FREE)
        assert len(list(ck.glob("cell-*.json"))) == 2
        assert study.store.publishes == 2

    def test_corrupt_checkpoint_raises_study_error(self, tmp_path):
        ck = tmp_path / "sweep.json"
        ck.write_text('{"format": 2, "reps": 2, ')  # an old, torn file
        with pytest.raises(StudyError, match="is a file"):
            Study(reps=2, checkpoint=ck)

    def test_reps_mismatch_rejected(self, tmp_path):
        ck = tmp_path / "store"
        Study(reps=2, checkpoint=ck).sweep(DEVICE, ["cc"], [INPUT])
        other = Study(reps=5, checkpoint=ck)
        other.run_cell("cc", INPUT, DEVICE, Variant.BASELINE)
        # records of another policy live at other addresses
        assert (other.cells_executed, other.cells_resumed) == (1, 0)

    def test_no_checkpoint_path_is_an_error(self):
        study = Study(reps=1)
        with pytest.raises(StudyError, match="no checkpoint path"):
            study.save_checkpoint("cc", INPUT, DEVICE)


class TestDegradedReport:
    def _mixed_cells(self):
        faults = FaultPlan.parse("stuck=1.0", seed=0)
        study = Study(reps=2, faults=faults)
        return study.sweep(DEVICE, ["cc", "gc"], [INPUT]).cells

    def test_failures_render_with_reason(self):
        text = speedup_table(self._mixed_cells())
        assert "FAIL(livelock)" in text
        assert "Geomean Speedup" in text

    def test_coverage_annotation(self):
        text = speedup_table(self._mixed_cells())
        assert "coverage: 1/2 cells completed" in text
        # the failed CC column footer cannot pretend to be a number
        assert "n/a" in text

    def test_partial_column_geomean_annotated(self):
        cells = [
            SpeedupCell("cc", "a", DEVICE, 2.0, 1.0),
            CellFailure("cc", "b", DEVICE, "baseline", "livelock",
                        "spin", 1, 0.1),
        ]
        text = speedup_table(cells)
        assert "[1/2]" in text

    def test_all_complete_has_full_coverage(self):
        study = Study(reps=1)
        cells = study.sweep(DEVICE, ["cc"], [INPUT]).cells
        text = speedup_table(cells, title="T")
        assert text.startswith("T\n")
        assert "coverage: 1/1 cells completed" in text
        assert "FAIL" not in text

    def test_empty_cells_rejected(self):
        with pytest.raises(StudyError):
            speedup_table([])
