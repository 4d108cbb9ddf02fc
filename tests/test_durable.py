"""Tests for :mod:`repro.utils.durable` across its two owners.

The ladder's cases run against both stores from
``tests/durable_ladder.py``.  Here: the shared quarantine family, and
files written by the build before the ladder was shared (banked under
``tests/data/durable/``: one trace and one store record of
``Study(reps=1, trace_cache=..., checkpoint=...)
.sweep("titanv", ["cc"], ["internet"])``), which must read as hits
with the content they hold and be rewritten with only their key order
changed (the trace) or with ``graph_fp`` added (the store record).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro import telemetry
from repro.core.store import ResultStore
from repro.core.variants import Variant
from repro.perf.trace import TraceCache, trace_key
from tests.durable_ladder import QUARANTINED, StoreAdapter, TraceAdapter

BANKED = Path(__file__).parent / "data" / "durable"


def _quarantine_help(directory: Path, adapters) -> str:
    """The quarantine family's help text after each of ``adapters``, in
    order, quarantined one file."""
    with telemetry.session() as (registry, _spans):
        for adapter in adapters:
            owned = directory / adapter.glob.split("-")[0]
            adapter.put(adapter.make(owned))
            for path in owned.glob(adapter.glob):
                path.write_text("[]")
            assert adapter.get(adapter.make(owned)) is None
        family = registry.get(QUARANTINED)
        assert family.value("shape") == len(adapters)
        return family.help


def test_quarantine_family_has_one_help_text(tmp_path):
    """Whichever store quarantines first declares the family."""
    trace_first = _quarantine_help(tmp_path / "a",
                                   (TraceAdapter, StoreAdapter))
    store_first = _quarantine_help(tmp_path / "b",
                                   (StoreAdapter, TraceAdapter))
    assert trace_first == store_first


def _banked(directory: Path, pattern: str) -> tuple[Path, dict]:
    """Copy the banked file matching ``pattern`` into a new
    ``directory``; returns the bank's file and its payload."""
    (source,) = BANKED.glob(pattern)
    directory.mkdir()
    shutil.copy(source, directory)
    return source, json.loads(source.read_text())


def test_a_trace_file_of_the_older_build_is_a_hit(tmp_path):
    source, banked = _banked(tmp_path / "read", "trace-*.json")
    key = trace_key(banked["algorithm"], banked["graph_fp"],
                    Variant(banked["variant"]), banked["seed"],
                    banked["staleness_rounds"], banked["plan_fp"])
    cache = TraceCache(disk_dir=tmp_path / "read")
    trace = cache.lookup(key)
    assert trace is not None
    assert (cache.disk_hits, cache.quarantined) == (1, 0)
    assert trace.key() == key and trace.output_fp == banked["output_fp"]
    assert {name: getattr(trace.stats, name) for name in banked["stats"]} \
        == banked["stats"]

    # written again, only the key order changes: same name, same length
    TraceCache(disk_dir=tmp_path / "write").store(trace)
    (rewritten,) = (tmp_path / "write").glob("trace-*.json")
    assert rewritten.name == source.name
    assert json.loads(rewritten.read_text()) == banked
    assert len(rewritten.read_bytes()) == len(source.read_bytes())


def test_a_store_record_of_the_older_build_is_a_hit(tmp_path):
    source, banked = _banked(tmp_path / "read", "cell-*.json")
    store = ResultStore(tmp_path / "read", reps=1, scale=1.0)
    found = store.lookup("cc", "internet", "titanv")
    assert found == (banked["records"], None)
    assert (store.hits, store.quarantined) == (1, 0)

    # published again, the record gains graph_fp and nothing else
    again = ResultStore(tmp_path / "write", reps=1, scale=1.0)
    again.publish("cc", "internet", "titanv", found[0], graph_fp="g")
    (rewritten,) = (tmp_path / "write").glob("cell-*.json")
    assert rewritten.name == source.name
    payload = json.loads(rewritten.read_text())
    assert payload.pop("graph_fp") == "g"
    assert {k: v for k, v in payload.items() if k != "crc"} == \
        {k: v for k, v in banked.items() if k != "crc"}
