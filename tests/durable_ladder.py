"""The durability ladder's cases, run against both of its owners.

:mod:`repro.utils.durable` is the one ladder under the trace cache and
the result store.  :class:`LadderCases` holds its cases once; a test
class inherits them with its store's adapter —
``test_hostfaults.TestTraceCacheSelfHealing`` with
:class:`TraceAdapter` and ``test_fleet.TestResultStore`` with
:class:`StoreAdapter` — so every case runs against both stores.
"""

from __future__ import annotations

import json

from repro import telemetry
from repro.core import hostfaults
from repro.core.hostfaults import HostFaultPlan
from repro.core.store import ResultStore
from repro.core.variants import Variant
from repro.gpu.timing import AccessStats
from repro.perf.trace import Trace, TraceCache
from repro.utils.durable import DEGRADE_AFTER, envelope_crc

QUARANTINED = "repro_host_corrupt_quarantined_total"


def restamp(path, **fields) -> None:
    """Rewrite an enveloped file with ``fields`` changed under a valid
    CRC: content the ladder accepts but its owner may not."""
    payload = dict(json.loads(path.read_text()), **fields)
    payload["crc"] = envelope_crc(payload)
    path.write_text(json.dumps(payload, sort_keys=True))


class TraceAdapter:
    """The trace cache: ``put(n)`` records trace ``n``."""

    glob = "trace-*.json"
    #: a value as its file spells it, and another value for it
    edit = ('"output_fp": "out"', '"output_fp": "oot"')
    #: what the owner published it keeps serving from memory
    remembers = True

    @staticmethod
    def make(directory) -> TraceCache:
        return TraceCache(disk_dir=directory)

    @staticmethod
    def value(n: int) -> Trace:
        stats = AccessStats()
        stats.rounds = 3
        return Trace(algorithm="cc", variant=Variant.BASELINE, seed=n,
                     staleness_rounds=-1, graph_fp=f"graph{n}",
                     plan_fp="plan", stats=stats, output_fp="out",
                     output=None)

    @classmethod
    def put(cls, cache: TraceCache, n: int = 0) -> None:
        cache.store(cls.value(n))

    @classmethod
    def get(cls, cache: TraceCache, n: int = 0):
        return cache.lookup(cls.value(n).key())


class StoreAdapter:
    """The result store: ``put(n)`` publishes cell cc/internet/dev<n>."""

    glob = "cell-*.json"
    edit = ('"runtimes_ms": [1.5]', '"runtimes_ms": [999.0]')
    remembers = False

    @staticmethod
    def make(directory) -> ResultStore:
        return ResultStore(directory, reps=1, scale=1.0)

    @staticmethod
    def value(n: int) -> tuple[list[dict], str]:
        records = [{"kind": "result", "algorithm": "cc",
                    "input": "internet", "device": f"dev{n}",
                    "variant": variant, "runtimes_ms": [1.5]}
                   for variant in ("baseline", "racefree")]
        return records, f"graph{n}"

    @classmethod
    def put(cls, store: ResultStore, n: int = 0) -> None:
        records, graph_fp = cls.value(n)
        store.publish("cc", "internet", f"dev{n}", records,
                      graph_fp=graph_fp)

    @staticmethod
    def get(store: ResultStore, n: int = 0):
        return store.lookup("cc", "internet", f"dev{n}")


class LadderCases:
    """Every rung of the ladder; subclasses set :attr:`adapter`."""

    adapter: type

    def _published(self, directory):
        """Publish value 0 through a fresh owner; returns its file."""
        self.adapter.put(self.adapter.make(directory))
        (path,) = directory.glob(self.adapter.glob)
        return path

    def _cold_read(self, directory, cause: str | None):
        """Read value 0 through a fresh owner, which must miss and
        quarantine one file as ``cause`` (or nothing, for None)."""
        with telemetry.session() as (registry, _spans):
            reader = self.adapter.make(directory)
            assert self.adapter.get(reader) is None
            family = registry.get(QUARANTINED)
        if cause is None:
            assert reader.quarantined == 0 and family is None
        else:
            assert reader.quarantined == 1
            assert family.samples() == [((cause,), 1)]
        return reader

    def test_torn_write_is_quarantined(self, tmp_path):
        path = self._published(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        self._cold_read(tmp_path, "torn")
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_undecodable_file_quarantined_as_torn(self, tmp_path):
        path = self._published(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] |= 0x80  # no longer decodes as UTF-8
        path.write_bytes(bytes(data))
        self._cold_read(tmp_path, "torn")
        assert not path.exists()

    def test_wrong_shape_quarantined(self, tmp_path):
        path = self._published(tmp_path)
        path.write_text("[1, 2, 3]")
        self._cold_read(tmp_path, "shape")
        assert not path.exists()

    def test_bitflip_caught_by_checksum(self, tmp_path):
        path = self._published(tmp_path)
        old, new = self.adapter.edit
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        self._cold_read(tmp_path, "checksum")
        assert list(tmp_path.glob("*.corrupt"))

    def test_old_format_is_a_plain_miss_not_a_quarantine(self, tmp_path):
        path = self._published(tmp_path)
        payload = json.loads(path.read_text())
        payload["format"] = 1
        path.write_text(json.dumps(payload))
        self._cold_read(tmp_path, None)
        assert path.exists()  # left in place to be published over

    def test_torn_file_quarantined_then_healed(self, tmp_path):
        path = self._published(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        reader = self._cold_read(tmp_path, "torn")
        corpses = list(tmp_path.glob("*.corrupt"))
        assert len(corpses) == 1
        # publishing again heals the slot; the corpse stays for
        # post-mortem
        self.adapter.put(reader)
        healed = self.adapter.make(tmp_path)
        assert self.adapter.get(healed) == self.adapter.value(0)
        assert list(tmp_path.glob("*.corrupt")) == corpses

    def test_degrades_to_memory_after_consecutive_disk_errors(
            self, tmp_path):
        a = self.adapter
        owner = a.make(tmp_path)
        plan = HostFaultPlan.parse("enospc=1.0", targets=(a.glob,))
        with hostfaults.installed(plan):
            for n in range(DEGRADE_AFTER):
                a.put(owner, n)
            assert owner.degraded
            assert owner.disk_errors == DEGRADE_AFTER
            # a degraded owner attempts no write: no fourth error
            a.put(owner, DEGRADE_AFTER)
            assert owner.disk_errors == DEGRADE_AFTER
        a.put(owner, DEGRADE_AFTER + 1)
        assert not list(tmp_path.glob(a.glob))
        # nor any read: a file a healthy owner publishes stays unseen
        a.put(a.make(tmp_path), 99)
        assert a.get(owner, 99) is None
        assert owner.degraded
        # the trace cache's memory layer never lost anything
        for n in range(DEGRADE_AFTER + 2):
            assert a.get(owner, n) == (a.value(n) if a.remembers else None)

    def test_intervening_success_resets_the_degrade_counter(
            self, tmp_path):
        plan = HostFaultPlan.parse("enospc=1.0",
                                   targets=(self.adapter.glob,))
        owner = self.adapter.make(tmp_path)
        with hostfaults.installed(plan):
            self.adapter.put(owner, 0)
            self.adapter.put(owner, 1)
        self.adapter.put(owner, 2)  # uninjected: succeeds, resets the run
        with hostfaults.installed(plan):
            self.adapter.put(owner, 3)
            self.adapter.put(owner, 4)
        assert owner.disk_errors == 4
        assert not owner.degraded
