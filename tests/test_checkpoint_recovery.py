"""Tests for self-healing checkpoints (repro.core.resilience, format 3)
and graceful sweep interruption.

Covers the ``.prev`` generation rotation (including verify-before-
rotate, also for the study's own generation damaged on disk), the
fallback ladder of ``load_checkpoint`` under torn / bit-flipped /
undecodable / wrong-format current generations, saves rendered byte
for byte as ``json.dumps(payload, indent=1)``, record-level salvage,
the all-or-nothing ``load_results`` commit, autosave tolerance of a
full disk, the double-crash resume drill, and SIGINT-to-
``SweepInterrupted`` conversion with a consistent final checkpoint.
"""

from __future__ import annotations

import json
import os
import shutil
import signal

import pytest

from repro.core import hostfaults
from repro.core.hostfaults import HostFaultPlan
from repro.core.resilience import (
    CHECKPOINT_FORMAT,
    CellFailure,
    ResilientStudy,
    checkpoint_crc,
)
from repro.core.study import RunResult
from repro.core.variants import Variant
from repro.errors import StudyError, SweepInterrupted

DEVICE = "titanv"
INPUT = "internet"
ALGOS = ["cc", "mis"]


@pytest.fixture(scope="module")
def seeded_checkpoint(tmp_path_factory):
    """A completed single-algorithm checkpointed sweep: the current
    generation (2 results) plus its rotated ``.prev`` (1 result)."""
    root = tmp_path_factory.mktemp("ckpt-seed")
    ckpt = root / "sweep.ckpt"
    study = ResilientStudy(reps=1, checkpoint=ckpt)
    result = study.sweep(DEVICE, ["cc"], [INPUT])
    assert not result.failures
    return ckpt


@pytest.fixture(scope="module")
def clean_results_bytes(tmp_path_factory):
    """``save_results`` bytes of an uninjected full mini-sweep — the
    truth every recovery path must reproduce exactly."""
    root = tmp_path_factory.mktemp("clean")
    study = ResilientStudy(reps=1)
    result = study.sweep(DEVICE, ALGOS, [INPUT])
    assert not result.failures
    out = root / "results.json"
    study.save_results(out)
    return out.read_bytes()


def _copied(src, tmp_path):
    """Copy the seeded generation pair into a per-test directory."""
    dst = tmp_path / src.name
    shutil.copy(src, dst)
    prev = src.with_name(src.name + ".prev")
    if prev.exists():
        shutil.copy(prev, dst.with_name(dst.name + ".prev"))
    return dst


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _set_high_bit(path):
    """Set bit 7 of one byte: the file no longer decodes as text."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] |= 0x80
    path.write_bytes(bytes(data))


def _synthetic_study(reps: int, results: int = 0, failures=(),
                     scale: float = 1.0) -> ResilientStudy:
    """A study whose memo holds hand-made outcomes, in memo order."""
    study = ResilientStudy(reps=reps, scale=scale)
    inputs = ["internet", "rmat16.sym", "amazon0601", "in-2004"]
    for i in range(results):
        variant = (Variant.BASELINE, Variant.RACE_FREE)[i % 2]
        runtimes = [1.0 / (i + 3) + 1e-7 * rep + 12345.678901 * (rep % 2)
                    for rep in range(reps)]
        result = RunResult("cc", inputs[i // 2 % 4], "titanv", variant,
                           runtimes, last_run=None)
        study._results[("cc", result.input_name, "titanv",
                        variant)] = result
    for i, message in enumerate(failures):
        failure = CellFailure("mis", inputs[i % 4], "a100", "baseline",
                              "livelock", message, attempts=i + 1,
                              elapsed_s=0.25 * i)
        study._failures[("mis", failure.input_name, "a100",
                         Variant.BASELINE)] = failure
    return study


class TestGenerationRotation:
    def test_prev_generation_exists_and_verifies(self, seeded_checkpoint):
        prev = seeded_checkpoint.with_name(
            seeded_checkpoint.name + ".prev")
        assert prev.exists()
        current = json.loads(seeded_checkpoint.read_text())
        older = json.loads(prev.read_text())
        assert current["format"] == CHECKPOINT_FORMAT
        assert current["crc"] == checkpoint_crc(current)
        assert older["crc"] == checkpoint_crc(older)
        # the rotation lags the current file by exactly one cell
        assert len(older["results"]) == len(current["results"]) - 1

    def test_corrupt_current_is_never_rotated_over_a_good_prev(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        prev = ckpt.with_name(ckpt.name + ".prev")
        good_prev = prev.read_bytes()
        _truncate(ckpt)

        study = ResilientStudy(reps=1, checkpoint=ckpt)
        study.load_checkpoint()          # falls back to .prev
        study.save_checkpoint()          # must not rotate the torn file
        assert prev.read_bytes() == good_prev
        fresh = ResilientStudy(reps=1, checkpoint=ckpt)
        assert fresh.load_checkpoint() == (1, 0)
        assert fresh.checkpoint_fallbacks == 0

    @pytest.mark.parametrize("damage", ["truncate", "high-bit"])
    def test_own_generation_damaged_on_disk_is_not_rotated(
            self, tmp_path, damage):
        # the study that wrote generation N must still check the file
        # before rotating it: the bytes on disk are no longer its own
        ckpt = tmp_path / "sweep.ckpt"
        prev = ckpt.with_name(ckpt.name + ".prev")
        study = _synthetic_study(reps=1, results=2)
        study.save_checkpoint(ckpt)
        study._results.popitem()
        study.save_checkpoint(ckpt)
        good_prev = prev.read_bytes()
        {"truncate": _truncate, "high-bit": _set_high_bit}[damage](ckpt)

        study._results.popitem()
        study.save_checkpoint(ckpt)
        assert prev.read_bytes() == good_prev

    def test_own_write_torn_by_a_host_fault_is_not_rotated(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        prev = ckpt.with_name(ckpt.name + ".prev")
        study = _synthetic_study(reps=1, results=3)
        study.save_checkpoint(ckpt)
        good = ckpt.read_bytes()
        study._results.popitem()
        plan = HostFaultPlan.parse("torn=1.0", targets=("*.ckpt",))
        with hostfaults.installed(plan):
            study.save_checkpoint(ckpt)  # rotates, then writes torn
        assert prev.read_bytes() == good

        study._results.popitem()
        study.save_checkpoint(ckpt)      # must not rotate the torn file
        assert prev.read_bytes() == good
        fresh = ResilientStudy(reps=1, checkpoint=ckpt)
        assert fresh.load_checkpoint() == (1, 0)


class TestFallbackLadder:
    def test_clean_load_uses_the_current_generation(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (2, 0)
        assert study.checkpoint_fallbacks == 0

    def test_truncated_current_falls_back_to_prev(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        _truncate(ckpt)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (1, 0)
        assert study.checkpoint_fallbacks == 1

    def test_bitflipped_current_fails_checksum_and_falls_back(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        text = ckpt.read_text()
        assert '"variant": "baseline"' in text
        ckpt.write_text(text.replace('"variant": "baseline"',
                                     '"variant": "baselinf"', 1))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (1, 0)
        assert study.checkpoint_fallbacks == 1

    def test_undecodable_current_falls_back(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        _set_high_bit(ckpt)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (1, 0)
        assert study.checkpoint_fallbacks == 1

    def test_unknown_format_falls_back(self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["format"] = 99
        ckpt.write_text(json.dumps(payload))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (1, 0)
        assert study.checkpoint_fallbacks == 1

    def test_format_2_without_crc_still_loads(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["format"] = 2
        del payload["crc"]
        ckpt.write_text(json.dumps(payload))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (2, 0)
        assert study.checkpoint_fallbacks == 0

    def test_both_generations_damaged_raises(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        _truncate(ckpt)
        _truncate(ckpt.with_name(ckpt.name + ".prev"))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        with pytest.raises(StudyError, match="corrupt or partial"):
            study.load_checkpoint()

    def test_corrupt_current_without_prev_raises(
            self, seeded_checkpoint, tmp_path):
        ckpt = tmp_path / seeded_checkpoint.name
        shutil.copy(seeded_checkpoint, ckpt)  # no .prev copied
        _truncate(ckpt)
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        with pytest.raises(StudyError, match="corrupt or partial"):
            study.load_checkpoint()

    def test_reps_mismatch_surfaces_instead_of_falling_back(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        study = ResilientStudy(reps=2, checkpoint=ckpt)
        with pytest.raises(StudyError, match="different reps/scale"):
            study.load_checkpoint()
        assert study.checkpoint_fallbacks == 0


class TestSalvage:
    def test_malformed_records_are_skipped_and_counted(
            self, seeded_checkpoint, tmp_path):
        ckpt = _copied(seeded_checkpoint, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["results"].append({"algorithm": "cc"})  # no runtimes
        payload["failures"].append({"not": "a failure record"})
        payload["crc"] = checkpoint_crc(payload)
        ckpt.write_text(json.dumps(payload))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        assert study.load_checkpoint() == (2, 0)
        assert study.checkpoint_salvaged == 2
        assert study.checkpoint_fallbacks == 0

    def test_load_results_commit_is_all_or_nothing(self, tmp_path):
        study = ResilientStudy(reps=1)
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


def _reference_text(study: ResilientStudy) -> str:
    """``json.dumps(indent=1)`` of the format-3 payload, built field by
    field from the study's memo — the text a save must produce."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "reps": study.reps,
        "scale": study.scale,
        "results": [
            {"algorithm": r.algorithm, "input": r.input_name,
             "device": r.device_key, "variant": r.variant.value,
             "runtimes_ms": r.runtimes_ms}
            for r in study._results.values()],
        "failures": [
            {"algorithm": f.algorithm, "input": f.input_name,
             "device": f.device_key, "variant": f.variant,
             "reason": f.reason, "message": f.message,
             "attempts": f.attempts, "elapsed_s": f.elapsed_s}
            for f in study.failures()],
    }
    payload["crc"] = checkpoint_crc(payload)
    return json.dumps(payload, indent=1)


def _assert_saves_reference(study: ResilientStudy, path) -> None:
    study.save_checkpoint(path)
    text = path.read_text()
    assert text == _reference_text(study)
    assert checkpoint_crc(json.loads(text)) == json.loads(text)["crc"]


MESSAGES = ('plain', 'say "no" to races', 'two\nlines\tand a tab',
            'backslash \\ and slash /', 'non-ASCII: naïve — µs ✓ 日本',
            '')


class TestCheckpointRendering:
    def test_empty_study(self, tmp_path):
        _assert_saves_reference(_synthetic_study(reps=3),
                                tmp_path / "s.ckpt")

    def test_results_only(self, tmp_path):
        _assert_saves_reference(_synthetic_study(reps=3, results=5),
                                tmp_path / "s.ckpt")

    def test_failures_only(self, tmp_path):
        _assert_saves_reference(
            _synthetic_study(reps=3, failures=MESSAGES[:2]),
            tmp_path / "s.ckpt")

    def test_awkward_failure_messages(self, tmp_path):
        _assert_saves_reference(
            _synthetic_study(reps=3, results=3, failures=MESSAGES[2:]),
            tmp_path / "s.ckpt")

    @pytest.mark.parametrize("reps", [1, 9])
    def test_reps_and_scale(self, tmp_path, reps):
        _assert_saves_reference(
            _synthetic_study(reps=reps, results=6, failures=MESSAGES[:1],
                             scale=0.5),
            tmp_path / "s.ckpt")

    def test_every_save_of_a_growing_memo(self, tmp_path):
        path = tmp_path / "s.ckpt"
        study = _synthetic_study(reps=2, results=6, failures=MESSAGES[:3])
        results = list(study._results.items())
        failures = list(study._failures.items())
        study._results.clear()
        study._failures.clear()
        for key, result in results:
            study._results[key] = result
            _assert_saves_reference(study, path)
        for key, failure in failures:
            study._failures[key] = failure
            _assert_saves_reference(study, path)

    def test_failure_popped_between_saves(self, tmp_path):
        # the service's half-open retry pops a failure to re-run it
        path = tmp_path / "s.ckpt"
        study = _synthetic_study(reps=1, results=2, failures=MESSAGES[:3])
        _assert_saves_reference(study, path)
        first, second = list(study._failures)[:2]
        # the retried cell fails again before the next save
        study._failures.pop(first)
        study._failures[first] = CellFailure(
            "mis", first[1], "a100", "baseline", "timeout", "retried",
            attempts=2, elapsed_s=1.5)
        _assert_saves_reference(study, path)
        study._failures.pop(second)
        _assert_saves_reference(study, path)

    def test_entries_replaced_by_load_checkpoint(self, tmp_path):
        source = _synthetic_study(reps=2, results=4, failures=MESSAGES[:2])
        source.save_checkpoint(tmp_path / "source.ckpt")
        study = _synthetic_study(reps=2, results=4, failures=MESSAGES[2:4])
        for result in study._results.values():
            result.runtimes_ms = [7.0, 8.0]
        path = tmp_path / "s.ckpt"
        _assert_saves_reference(study, path)
        assert study.load_checkpoint(tmp_path / "source.ckpt") == (4, 2)
        _assert_saves_reference(study, path)
        assert path.read_bytes() == (tmp_path / "source.ckpt").read_bytes()

    def test_sweep_autosave_matches_reference(self, tmp_path):
        path = tmp_path / "s.ckpt"
        study = ResilientStudy(reps=1, scale=0.5, checkpoint=path)
        result = study.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        assert path.read_text() == _reference_text(study)


class TestAutosaveUnderDiskFailure:
    def test_full_disk_does_not_kill_the_sweep(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        plan = HostFaultPlan.parse("enospc=1.0", targets=("*.ckpt",))
        study = ResilientStudy(reps=1, checkpoint=ckpt)
        with hostfaults.installed(plan):
            result = study.sweep(DEVICE, ["cc"], [INPUT])
        assert not result.failures
        assert result.coverage[0] == result.coverage[1]
        assert study.checkpoint_write_errors == 2  # one per cell
        assert not ckpt.exists()
        # the disk coming back makes the next autosave stick
        study._autosave()
        assert ckpt.exists()


class TestCrashResumeDrills:
    def test_double_crash_resume_reaches_identical_results(
            self, tmp_path, clean_results_bytes):
        ckpt = tmp_path / "sweep.ckpt"
        first = ResilientStudy(reps=1, checkpoint=ckpt)
        first.sweep(DEVICE, ["cc"], [INPUT])
        _truncate(ckpt)  # crash #1 tore the current generation

        second = ResilientStudy(reps=1, checkpoint=ckpt)
        second.load_checkpoint()
        assert second.checkpoint_fallbacks == 1
        second.sweep(DEVICE, ALGOS, [INPUT])
        _truncate(ckpt)  # crash #2

        third = ResilientStudy(reps=1, checkpoint=ckpt)
        n_res, n_fail = third.load_checkpoint()
        assert third.checkpoint_fallbacks == 1 and n_fail == 0
        result = third.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        # only the cell the rotation lagged behind on was re-executed
        assert third.cells_executed == 4 - n_res
        out = tmp_path / "results.json"
        third.save_results(out)
        assert out.read_bytes() == clean_results_bytes


class _InterruptAfter(ResilientStudy):
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
        ckpt = tmp_path / "sweep.ckpt"
        before = signal.getsignal(signal.SIGINT)
        study = _InterruptAfter(reps=1, checkpoint=ckpt)
        with pytest.raises(SweepInterrupted, match="--resume"):
            study.sweep(DEVICE, ALGOS, [INPUT])
        # the pre-sweep handler is restored once the sweep unwinds
        assert signal.getsignal(signal.SIGINT) is before

        resumed = ResilientStudy(reps=1, checkpoint=ckpt)
        assert resumed.load_checkpoint() == (2, 0)
        result = resumed.sweep(DEVICE, ALGOS, [INPUT])
        assert not result.failures
        assert resumed.cells_executed == 2  # only the missing cells
        out = tmp_path / "results.json"
        resumed.save_results(out)
        assert out.read_bytes() == clean_results_bytes
