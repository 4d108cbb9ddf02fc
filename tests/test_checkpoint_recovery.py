"""Tests for resuming from the checkpoint store and graceful sweep
interruption.

A checkpointed :class:`~repro.core.resilience.Study` publishes
each finished cell to a :class:`~repro.core.store.ResultStore` and looks
missing cells up there.  Covers the reader kept for checkpoint files of
older builds (``Study.load_results`` reads formats 2 and 3), the
all-or-nothing ``load_results`` commit, a malformed record costing only
its cell, the published records' exact bytes, graphs passed in
directly staying out of the store, a store hit still refusing a graph
name clash, publishing under a full disk, the
double-crash resume drill, resume ordering under ``jobs=2`` over a
half-filled store with a torn record, and SIGINT-to-
``SweepInterrupted`` conversion with every finished cell checkpointed.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
import zlib

import pytest

from repro import telemetry
from repro.core import hostfaults
from repro.core.hostfaults import HostFaultPlan
from repro.core.study import Study
from repro.core.store import STORE_FORMAT
from repro.errors import StudyError, SweepInterrupted
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import grid2d
from repro.graphs.suite import load_suite_graph
from repro.utils.durable import envelope_crc
from tests.durable_ladder import restamp

DEVICE = "titanv"
INPUT = "internet"
ALGOS = ["cc", "mis"]


@pytest.fixture(scope="module")
def clean_results_bytes(tmp_path_factory):
    """``save_results`` bytes of an uninjected full mini-sweep — the
    truth every recovery path must reproduce exactly."""
    root = tmp_path_factory.mktemp("clean")
    study = Study(reps=1)
    result = study.sweep(DEVICE, ALGOS, [INPUT])
    assert not result.failures
    out = root / "results.json"
    study.save_results(out)
    return out.read_bytes()


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _records(store_dir):
    return sorted(store_dir.glob("cell-*.json"))


def _old_checkpoint(path, reps: int, results: list[dict],
                    fmt: int = 3) -> None:
    """Write a checkpoint file the way older builds did: the format-3
    payload (format, reps, scale, results, failures, crc) as
    ``json.dumps(indent=1)``; format 2 has no ``crc``."""
    payload = {"format": fmt, "reps": reps, "scale": 1.0,
               "results": results, "failures": []}
    if fmt == 3:
        payload["crc"] = zlib.crc32(
            json.dumps([results, []], sort_keys=True).encode())
    path.write_text(json.dumps(payload, indent=1))


@pytest.fixture(scope="module")
def old_checkpoint(tmp_path_factory, clean_results_bytes):
    """A format-3 checkpoint file of the clean mini-sweep."""
    path = tmp_path_factory.mktemp("old") / "sweep.ckpt"
    _old_checkpoint(path, 1, json.loads(clean_results_bytes)["results"])
    return path


class TestFallbackLadder:
    """What is left of the checkpoint-file ladder: the reader.

    Checkpoint files of older builds load through
    :meth:`~repro.core.study.Study.load_results`; passing one as
    ``checkpoint=`` is refused with a pointer to it."""

    def test_clean_load_uses_the_current_generation(
            self, old_checkpoint, tmp_path, clean_results_bytes):
        study = Study(reps=1)
        assert study.load_results(old_checkpoint) == 4
        out = tmp_path / "results.json"
        study.save_results(out)
        assert out.read_bytes() == clean_results_bytes
        with pytest.raises(StudyError, match="load_results"):
            Study(reps=1, checkpoint=old_checkpoint)

    def test_format_2_without_crc_still_loads(
            self, tmp_path, clean_results_bytes):
        path = tmp_path / "sweep.ckpt"
        _old_checkpoint(path, 1, json.loads(clean_results_bytes)["results"],
                        fmt=2)
        assert Study(reps=1).load_results(path) == 4

    def test_corrupt_current_without_prev_raises(
            self, old_checkpoint, tmp_path):
        path = tmp_path / old_checkpoint.name
        path.write_bytes(old_checkpoint.read_bytes())
        _truncate(path)
        with pytest.raises(StudyError, match="corrupt or partial"):
            Study(reps=1).load_results(path)

    def test_reps_mismatch_surfaces_instead_of_falling_back(
            self, old_checkpoint):
        with pytest.raises(StudyError, match="different reps/scale"):
            Study(reps=2).load_results(old_checkpoint)


class TestSalvage:
    """A bad record costs its own cell, never the load."""

    def test_malformed_records_are_skipped_and_counted(self, tmp_path):
        store_dir = tmp_path / "store"
        first = Study(reps=1, checkpoint=store_dir)
        first.sweep(DEVICE, ALGOS, [INPUT])
        # a record the study could not merge, written with a valid CRC
        path = _records(store_dir)[0]
        payload = json.loads(path.read_text())
        del payload["records"][0]["runtimes_ms"]
        payload["crc"] = envelope_crc(payload)
        path.write_text(json.dumps(payload))

        second = Study(reps=1, checkpoint=store_dir)
        result = second.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        assert second.store.quarantined == 1
        assert (second.cells_executed, second.cells_resumed) == (2, 2)

    def test_load_results_commit_is_all_or_nothing(self, tmp_path):
        study = Study(reps=1)
        good = {"algorithm": "cc", "input": INPUT, "device": DEVICE,
                "variant": "baseline", "runtimes_ms": [1.0]}
        out = tmp_path / "results.json"
        out.write_text(json.dumps({
            "reps": 1, "scale": 1.0,
            "results": [good, {"algorithm": "cc"}]}))
        with pytest.raises(StudyError, match="malformed record"):
            study.load_results(out)
        # the parseable record before the malformed one was NOT kept
        assert study._results == {}


class TestCheckpointRendering:
    def test_sweep_autosave_matches_reference(self, tmp_path):
        """Each published record is the sorted-key JSON of its cell's
        payload — built field by field here — with its CRC."""
        store_dir = tmp_path / "store"
        study = Study(reps=1, scale=0.5, checkpoint=store_dir)
        result = study.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        graph_fp = load_suite_graph(INPUT, scale=0.5).fingerprint()
        expected = set()
        for algorithm in ALGOS:
            payload = {
                "format": STORE_FORMAT, "reps": 1, "scale": 0.5,
                "faults": None, "algorithm": algorithm, "input": INPUT,
                "device": DEVICE, "graph_fp": graph_fp,
                "records": [
                    {"kind": "result", "algorithm": r.algorithm,
                     "input": r.input_name, "device": r.device_key,
                     "variant": r.variant.value,
                     "runtimes_ms": r.runtimes_ms}
                    for key, r in study._results.items()
                    if key[0] == algorithm]}
            payload["crc"] = envelope_crc(payload)
            expected.add(json.dumps(payload, sort_keys=True))
        assert {p.read_text() for p in _records(store_dir)} == expected


class TestDirectGraphs:
    def test_a_graph_passed_in_is_never_stored(self, tmp_path):
        """The store's address names an input, not its content: two
        different graphs under one name must not share records."""
        store_dir = tmp_path / "store"
        path = CSRGraph.from_edges(
            64, [(i, i + 1) for i in range(63)], directed=False,
            name="g", symmetrize=True)
        star = CSRGraph.from_edges(
            64, [(0, i) for i in range(1, 64)], directed=False, name="g",
            symmetrize=True)
        Study(reps=1, checkpoint=store_dir).speedup_cell(
            "cc", path, DEVICE)
        assert not _records(store_dir)

        study = Study(reps=1, checkpoint=store_dir)
        cell = study.speedup_cell("cc", star, DEVICE)
        assert (study.cells_executed, study.cells_resumed) == (2, 0)
        fresh = Study(reps=1).speedup_cell("cc", star, DEVICE)
        assert cell.baseline_ms == fresh.baseline_ms

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_store_hit_still_refuses_a_name_clash(self, tmp_path, jobs):
        """A suite input served from the store is noted under its
        published graph fingerprint, so a different graph passed in
        under its name is refused as it is without a store."""
        store_dir = tmp_path / "store"
        Study(reps=1, checkpoint=store_dir).sweep(
            DEVICE, ["cc"], [INPUT])
        study = Study(reps=1, checkpoint=store_dir)
        with pytest.raises(StudyError, match="already used"):
            study.sweep(DEVICE, ["cc"], [INPUT, grid2d(12, name=INPUT)],
                        jobs=jobs)

    def test_a_record_of_other_content_is_recomputed(self, tmp_path):
        """A stored record whose graph fingerprint contradicts the graph
        the study built for its input (a build whose generator differed
        published it) is a miss: the cell runs again and republishes."""
        store_dir = tmp_path / "store"
        Study(reps=1, checkpoint=store_dir).sweep(
            DEVICE, ["cc"], [INPUT])
        (path,) = _records(store_dir)
        restamp(path, graph_fp="other")
        study = Study(reps=1, checkpoint=store_dir)
        study.sweep(DEVICE, ["mis", "cc"], [INPUT])
        assert (study.cells_executed, study.cells_resumed) == (4, 0)
        assert json.loads(path.read_text())["graph_fp"] == \
            load_suite_graph(INPUT).fingerprint()


class TestAutosaveUnderDiskFailure:
    def test_full_disk_does_not_kill_the_sweep(self, tmp_path):
        store_dir = tmp_path / "store"
        plan = HostFaultPlan.parse("enospc=1.0", targets=("cell-*.json",))
        study = Study(reps=1, checkpoint=store_dir)
        with hostfaults.installed(plan):
            result = study.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        assert result.coverage[0] == result.coverage[1]
        assert study.store.disk_errors == 2  # one per cell
        assert not _records(store_dir)
        # the disk coming back makes the next publish stick
        study.save_checkpoint("cc", INPUT, DEVICE)
        assert len(_records(store_dir)) == 1


class TestCrashResumeDrills:
    def test_double_crash_resume_reaches_identical_results(
            self, tmp_path, clean_results_bytes):
        store_dir = tmp_path / "store"
        first = Study(reps=1, checkpoint=store_dir)
        first.sweep(DEVICE, ["cc"], [INPUT])
        _truncate(_records(store_dir)[0])  # crash #1 tore the record

        second = Study(reps=1, checkpoint=store_dir)
        second.sweep(DEVICE, ALGOS, [INPUT])
        assert second.store.quarantined == 1
        assert second.cells_executed == 4
        torn = next(p for p in _records(store_dir)
                    if (p.with_name(p.name + ".corrupt")).exists())
        _truncate(torn)  # crash #2 tore the rewritten record

        third = Study(reps=1, checkpoint=store_dir)
        result = third.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        # only the torn cell was re-executed, the other one was resumed
        assert (third.cells_executed, third.cells_resumed) == (2, 2)
        out = tmp_path / "results.json"
        third.save_results(out)
        assert out.read_bytes() == clean_results_bytes


class TestResumeOrdering:
    def test_half_store_with_a_torn_record_resumes_byte_identical(
            self, tmp_path):
        """A ``jobs=2`` sweep over a store holding every other cell, one
        of them torn, merges store hits at their place in the sweep
        order: ``save_results`` equals an uninterrupted serial sweep."""
        algos = ["cc", "gc", "mis", "mst"]
        inputs = [INPUT, "rmat16.sym"]
        serial = Study(reps=1)
        serial.sweep(DEVICE, algos, inputs)
        serial.save_results(tmp_path / "serial.json")

        store_dir = tmp_path / "store"
        cells = [(a, name) for name in inputs for a in algos]
        filler = Study(reps=1, checkpoint=store_dir)
        for a, name in cells[::2]:
            filler.speedup_cell(a, name, DEVICE)
        torn = filler.store._path(filler.store.digest(
            *cells[2], DEVICE))
        _truncate(torn)

        with telemetry.session() as (registry, _spans):
            resumed = Study(reps=1, checkpoint=store_dir)
            result = resumed.sweep(DEVICE, algos, inputs, jobs=2)
            quarantined = registry.get(
                "repro_host_corrupt_quarantined_total")
            assert quarantined is not None
            assert quarantined.value("torn") == 1
        assert not result.failures
        resumed.save_results(tmp_path / "resumed.json")
        assert (tmp_path / "resumed.json").read_bytes() == \
            (tmp_path / "serial.json").read_bytes()
        assert torn.with_name(torn.name + ".corrupt").exists()
        # the four missing cells and the torn one ran, three were served
        assert resumed.cells_executed == 2 * 5
        assert resumed.cells_resumed == 2 * 3
        assert len(_records(store_dir)) == len(cells)


class _InterruptAfter(Study):
    """Sends itself SIGINT after the N-th completed cell — a
    deterministic stand-in for an operator's Ctrl-C mid-sweep."""

    interrupt_after = 2

    def run_cell(self, *args, **kwargs):
        out = super().run_cell(*args, **kwargs)
        self._seen = getattr(self, "_seen", 0) + 1
        if self._seen == self.interrupt_after:
            os.kill(os.getpid(), signal.SIGINT)
        return out


class TestGracefulInterrupt:
    def test_sigint_checkpoints_and_resume_completes(
            self, tmp_path, clean_results_bytes):
        store_dir = tmp_path / "store"
        before = signal.getsignal(signal.SIGINT)
        study = _InterruptAfter(reps=1, checkpoint=store_dir)
        with pytest.raises(SweepInterrupted, match="same --checkpoint"):
            study.sweep(DEVICE, ALGOS, [INPUT])
        # the pre-sweep handler is restored once the sweep unwinds
        assert signal.getsignal(signal.SIGINT) is before
        assert len(_records(store_dir)) == 1  # the finished cell

        resumed = Study(reps=1, checkpoint=store_dir)
        result = resumed.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        assert resumed.cells_executed == 2  # only the missing cell
        assert resumed.cells_resumed == 2
        out = tmp_path / "results.json"
        resumed.save_results(out)
        assert out.read_bytes() == clean_results_bytes

    def test_the_message_claims_a_checkpoint_only_with_a_store(
            self, tmp_path):
        messages = []
        for checkpoint in (tmp_path / "store", None):
            study = _InterruptAfter(reps=1, checkpoint=checkpoint)
            with pytest.raises(SweepInterrupted) as info:
                study.sweep(DEVICE, ALGOS, [INPUT])
            messages.append(str(info.value))
        assert messages == [
            "sweep interrupted by SIGINT; every finished cell is "
            "checkpointed — rerun with the same --checkpoint",
            "sweep interrupted by SIGINT"]


class _Finalized:
    """Garbage only the cycle collector frees, whose finalizer runs
    ``finalize``."""

    def __init__(self, finalize):
        self.cycle = self
        self.finalize = finalize

    def __del__(self):
        self.finalize()


class TestInterruptInAFinalizer:
    """A signal whose handler runs inside a finalizer raises there,
    where Python only reports the exception: the guard drops that
    report and raises the interrupt at its exit."""

    @staticmethod
    def _recording_hook(monkeypatch) -> list:
        reported = []
        monkeypatch.setattr(sys, "unraisablehook", reported.append)
        return reported

    def test_the_interrupt_is_raised_at_the_exit_not_reported(
            self, monkeypatch):
        reported = self._recording_hook(monkeypatch)
        hook = sys.unraisablehook
        with pytest.raises(SweepInterrupted):
            with Study(reps=1)._graceful_interrupt():
                _Finalized(lambda: signal.raise_signal(signal.SIGINT))
                gc.collect()
        assert not [u for u in reported
                    if isinstance(u.exc_value, SweepInterrupted)]
        assert sys.unraisablehook is hook

    def test_other_finalizer_errors_still_reach_the_hook(
            self, monkeypatch):
        reported = self._recording_hook(monkeypatch)

        def fail():
            raise ValueError("finalizer fault")

        with Study(reps=1)._graceful_interrupt():
            _Finalized(fail)
            gc.collect()
        assert [str(u.exc_value) for u in reported
                if isinstance(u.exc_value, ValueError)] == [
                    "finalizer fault"]
