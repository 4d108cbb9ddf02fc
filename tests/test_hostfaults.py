"""Tests for host-fault injection (repro.core.hostfaults) and the
self-healing trace cache (repro.perf.trace, format 2).

Covers spec parsing/validation, deterministic seeded draws, filename
targeting, each storage fault's observable effect through
``atomic_write_text``, the no-op byte-identity guarantee (no plan, and
an installed all-zero-rate plan), the parent-directory fsync, and the
trace cache's quarantine / checksum / degrade-to-memory behaviour (the
cases of tests/durable_ladder.py, plus a sweep over undecodable traces).
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import stat

import pytest

from repro.core import hostfaults
from repro.core.hostfaults import (
    DISRUPTION_KINDS,
    STORAGE_KINDS,
    HostFaultInjector,
    HostFaultKind,
    HostFaultPlan,
    HostFaultSpec,
)
from repro.errors import FaultConfigError
from repro.perf.trace import TRACE_FORMAT, TraceCache
from repro.utils import atomicio
from repro.utils.atomicio import atomic_write_text
from repro.utils.durable import envelope_crc
from tests.durable_ladder import LadderCases, TraceAdapter


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends without an installed plan."""
    hostfaults.uninstall()
    yield
    hostfaults.uninstall()


def _all_zero_plan(**kwargs) -> HostFaultPlan:
    return HostFaultPlan(
        [HostFaultSpec(kind, 0.0) for kind in HostFaultKind], **kwargs)


class TestPlanParsing:
    def test_parse_rates_and_bare_kind(self):
        plan = HostFaultPlan.parse("torn=0.3,kill=1,enospc")
        assert plan.rate(HostFaultKind.TORN_WRITE) == pytest.approx(0.3)
        assert plan.rate(HostFaultKind.WORKER_KILL) == 1.0
        assert plan.rate(HostFaultKind.NO_SPACE) == 1.0
        assert plan.rate(HostFaultKind.BIT_FLIP) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown host fault"):
            HostFaultPlan.parse("sharknado=0.5")

    def test_bad_rate_rejected(self):
        with pytest.raises(FaultConfigError, match="bad rate"):
            HostFaultPlan.parse("torn=lots")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(FaultConfigError, match=r"\[0, 1\]"):
            HostFaultPlan.parse("torn=1.5")

    def test_empty_spec_rejected(self):
        with pytest.raises(FaultConfigError, match="empty"):
            HostFaultPlan.parse("  , ,")

    def test_duplicate_kind_rejected(self):
        with pytest.raises(FaultConfigError, match="duplicate"):
            HostFaultPlan.parse("torn=0.2,torn=0.4")

    def test_negative_stall_rejected(self):
        with pytest.raises(FaultConfigError, match="stall_seconds"):
            HostFaultPlan.parse("stall", stall_seconds=-1.0)

    def test_every_kind_is_storage_or_disruption(self):
        assert STORAGE_KINDS | DISRUPTION_KINDS == set(HostFaultKind)
        assert not STORAGE_KINDS & DISRUPTION_KINDS

    def test_plan_is_picklable(self):
        plan = HostFaultPlan.parse(
            "kill=0.7,torn=0.2", seed=5, targets=("trace-*.json",),
            disrupt_generations=2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.describe() == plan.describe()
        assert clone.draw(HostFaultKind.WORKER_KILL, "cc", "internet",
                          "titanv", 0) == plan.draw(
            HostFaultKind.WORKER_KILL, "cc", "internet", "titanv", 0)


class TestDeterministicDraws:
    def test_same_seed_same_draws(self):
        a = HostFaultPlan.parse("torn=0.5", seed=3)
        b = HostFaultPlan.parse("torn=0.5", seed=3)
        keys = [("f.json", i) for i in range(32)]
        assert [a.draw(HostFaultKind.TORN_WRITE, *k) for k in keys] == \
               [b.draw(HostFaultKind.TORN_WRITE, *k) for k in keys]

    def test_draws_in_unit_interval_and_seed_sensitive(self):
        a = HostFaultPlan.parse("torn=0.5", seed=0)
        b = HostFaultPlan.parse("torn=0.5", seed=1)
        da = [a.draw(HostFaultKind.TORN_WRITE, "f", i) for i in range(64)]
        db = [b.draw(HostFaultKind.TORN_WRITE, "f", i) for i in range(64)]
        assert all(0.0 <= x < 1.0 for x in da)
        assert da != db

    def test_rate_zero_never_triggers_rate_one_always(self):
        plan = HostFaultPlan.parse("torn=1.0,bitflip=0.0")
        for i in range(16):
            assert plan.triggers(HostFaultKind.TORN_WRITE, "f", i)
            assert not plan.triggers(HostFaultKind.BIT_FLIP, "f", i)

    def test_targets_glob_matching(self):
        plan = HostFaultPlan.parse("torn=1.0", targets=("trace-*.json",))
        assert plan.targets_path("trace-abc123.json")
        assert not plan.targets_path("sweep.ckpt")
        assert HostFaultPlan.parse("torn=1.0").targets_path("anything")


class TestStorageInjection:
    def test_enospc_raises_and_preserves_old_file(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        atomic_write_text(path, "old generation")
        with hostfaults.installed(HostFaultPlan.parse("enospc=1.0")):
            with pytest.raises(OSError) as exc_info:
                atomic_write_text(path, "new generation")
        assert exc_info.value.errno == errno.ENOSPC
        assert path.read_text() == "old generation"
        # the hook fires before mkstemp, so nothing is left behind
        assert list(tmp_path.iterdir()) == [path]

    def test_eio_raises_with_errno(self, tmp_path):
        with hostfaults.installed(HostFaultPlan.parse("eio=1.0")):
            with pytest.raises(OSError) as exc_info:
                atomic_write_text(tmp_path / "x.json", "{}")
        assert exc_info.value.errno == errno.EIO

    def test_torn_write_is_a_strict_prefix(self, tmp_path):
        path = tmp_path / "x.json"
        text = json.dumps({"k": list(range(40))})
        with hostfaults.installed(HostFaultPlan.parse("torn=1.0")):
            atomic_write_text(path, text)
        stored = path.read_text()
        assert len(stored) < len(text)
        assert text.startswith(stored)

    def test_bitflip_changes_exactly_one_character(self, tmp_path):
        path = tmp_path / "x.json"
        text = json.dumps({"k": list(range(40))})
        with hostfaults.installed(HostFaultPlan.parse("bitflip=1.0")):
            atomic_write_text(path, text)
        stored = path.read_text()
        assert len(stored) == len(text)
        diffs = [i for i, (a, b) in enumerate(zip(text, stored)) if a != b]
        assert len(diffs) == 1

    def test_per_file_write_index_keys_decisions(self):
        # two injectors from the same plan replay the same mangle
        # sequence write for write — the per-name counter, not wall
        # clock or randomness, keys every decision
        from pathlib import Path

        plan = HostFaultPlan.parse("torn=0.5,bitflip=0.3", seed=7)
        text = "x" * 200
        inj_a, inj_b = HostFaultInjector(plan), HostFaultInjector(plan)
        seq_a = [inj_a.filter_write(Path("f.json"), text)
                 for _ in range(16)]
        seq_b = [inj_b.filter_write(Path("f.json"), text)
                 for _ in range(16)]
        assert seq_a == seq_b
        # a 0.5/0.3 plan over 16 writes mangles some and spares others
        assert any(s != text for s in seq_a)
        assert any(s == text for s in seq_a)

    def test_targets_scope_the_blast_radius(self, tmp_path):
        plan = HostFaultPlan.parse("enospc=1.0",
                                   targets=("trace-*.json",))
        with hostfaults.installed(plan):
            atomic_write_text(tmp_path / "sweep.ckpt", "safe")
            with pytest.raises(OSError):
                atomic_write_text(tmp_path / "trace-abc.json", "{}")
        assert (tmp_path / "sweep.ckpt").read_text() == "safe"


class TestNoOpGuarantee:
    def test_no_plan_and_zero_rate_plan_write_identical_bytes(
            self, tmp_path):
        text = json.dumps({"payload": list(range(100))}, indent=1)
        bare = tmp_path / "bare.json"
        zeroed = tmp_path / "zeroed.json"
        atomic_write_text(bare, text)
        with hostfaults.installed(_all_zero_plan()):
            atomic_write_text(zeroed, text)
        assert bare.read_bytes() == zeroed.read_bytes()

    def test_installed_restores_previous_state(self):
        assert hostfaults.active_plan() is None
        assert atomicio._WRITE_HOOK is None
        outer = HostFaultPlan.parse("torn=1.0")
        with hostfaults.installed(outer):
            assert hostfaults.active_plan() is outer
            with hostfaults.installed(_all_zero_plan()):
                assert hostfaults.active_plan() is not outer
            assert hostfaults.active_plan() is outer
            assert atomicio._WRITE_HOOK is not None
        assert hostfaults.active_plan() is None
        assert atomicio._WRITE_HOOK is None

    def test_maybe_disrupt_without_plan_is_a_noop(self):
        hostfaults.maybe_disrupt(None, ("cc", "internet", "titanv"), 0)

    def test_disrupt_generations_bounds_worker_faults(self):
        plan = HostFaultPlan.parse("kill=1.0", disrupt_generations=1,
                                   stall_seconds=0.0)
        key = ("cc", "internet", "titanv")
        # generation >= bound returns before any trigger is drawn —
        # safe to call in-process even with kill=1.0
        hostfaults.maybe_disrupt(plan, key, 1)
        hostfaults.maybe_disrupt(plan, key, 5)
        assert plan.triggers(HostFaultKind.WORKER_KILL, *key, 0)


def test_atomic_write_fsyncs_parent_directory(tmp_path, monkeypatch):
    synced_dirs = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced_dirs.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(atomicio.os, "fsync", recording_fsync)
    atomic_write_text(tmp_path / "x.json", "{}")
    assert True in synced_dirs    # the parent directory entry table
    assert False in synced_dirs   # the payload itself


# ----------------------------------------------------------------------
# Self-healing trace cache (the ladder's cases: tests/durable_ladder.py)
# ----------------------------------------------------------------------
def _set_high_bit(path) -> None:
    """Set bit 7 of one byte: the file no longer decodes as text."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] |= 0x80
    path.write_bytes(bytes(data))


class TestTraceCacheSelfHealing(LadderCases):
    adapter = TraceAdapter

    def test_disk_roundtrip_with_checksum(self, tmp_path):
        writer = TraceCache(disk_dir=tmp_path)
        trace = TraceAdapter.value(0)
        writer.store(trace)
        files = list(tmp_path.glob("trace-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["format"] == TRACE_FORMAT
        assert payload["crc"] == envelope_crc(payload)
        reader = TraceCache(disk_dir=tmp_path)
        hit = reader.lookup(trace.key())
        assert hit is not None and hit.rounds == 3 and hit.output is None
        assert reader.disk_hits == 1 and reader.quarantined == 0

    def test_sweep_rerecords_over_undecodable_traces(self, tmp_path):
        from repro.core.study import Study

        first = Study(reps=1, trace_cache=tmp_path)
        first.sweep("titanv", ["cc"], ["internet"])
        files = list(tmp_path.glob("trace-*.json"))
        assert files
        for path in files:
            _set_high_bit(path)
        second = Study(reps=1, trace_cache=tmp_path)
        result = second.sweep("titanv", ["cc"], ["internet"])
        assert not result.failures
        assert second.trace_cache.quarantined == len(files)
        assert second._result_records() == first._result_records()
