"""Pinned race reports: what the detector reports must stay the same.

``tests/data/race_reports.json`` holds, under one key per entry:

* ``pattern/<name>/<variant>`` — every pattern × variant checked at the
  smoke budget: the ``races`` entries ``repro check --json`` writes
  (:meth:`~repro.gpu.racecheck.RaceReport.to_json`), and
  ``predicted_only``, the number of racy site pairs
  (:attr:`~repro.gpu.racecheck.RaceReport.site_id`) that every explored
  run, analysed afresh, reports only as predicted — pairs that no
  explored schedule witnesses;
* ``localize/<target>`` — the reports
  :func:`repro.repair.localize.collect_reports` clusters into repair
  obligations, for the four targets the ledger's repair-smoke workload
  runs.

For a change to the race engine that must keep its reports, generate
the file from the commit before it, never from the changed code::

    PYTHONPATH=<that commit's src> python tests/test_race_reports.py

writes the file next to this module.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.check import BUDGETS, check
from repro.core.variants import Variant
from repro.patterns import PATTERNS
from tests.test_race_session import also_collected, fresh_per_run

DATA = Path(__file__).parent / "data" / "race_reports.json"

#: the repair-smoke targets whose localization is pinned
LOCALIZE_TARGETS = ("cc", "apsp_shared", "twophase", "mis_packed")


def _plain(records: list[dict]) -> list[dict]:
    """``records`` as they read back from the fixture's JSON."""
    return json.loads(json.dumps(records))


def pattern_record(name: str, variant: Variant) -> dict:
    """``check(name)`` at the smoke budget: its races, and its site
    pairs that no run witnesses."""
    with also_collected(lambda: (fresh_per_run(),)) as collected:
        report = check(name, variant=variant, budget=BUDGETS["smoke"],
                       max_minimized=0)
    (fresh,), = collected
    return {"races": _plain([r.to_json() for r in report.races]),
            "predicted_only": fresh.predicted_only}


def localize_record(target: str) -> list[dict]:
    from repro.repair.localize import collect_reports
    from repro.repair.targets import get_target

    reports, _events = collect_reports(get_target(target))
    return _plain([r.to_json() for r in reports])


def load_reports() -> dict:
    return json.loads(DATA.read_text())


def generate() -> dict:
    pinned: dict = {}
    for name in sorted(PATTERNS):
        for variant in Variant:
            pinned[f"pattern/{name}/{variant.value}"] = pattern_record(
                name, variant)
    for target in LOCALIZE_TARGETS:
        pinned[f"localize/{target}"] = localize_record(target)
    return pinned


# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PATTERNS))
@pytest.mark.parametrize("variant", list(Variant))
def test_pattern_reports(name, variant):
    pinned = load_reports()[f"pattern/{name}/{variant.value}"]
    assert pattern_record(name, variant) == pinned


@pytest.mark.parametrize("target", LOCALIZE_TARGETS)
def test_localized_reports(target):
    assert localize_record(target) == load_reports()[f"localize/{target}"]


def test_covers_every_cell():
    pinned = load_reports()
    expected = {f"pattern/{name}/{variant.value}"
                for name in PATTERNS for variant in Variant}
    expected |= {f"localize/{target}" for target in LOCALIZE_TARGETS}
    assert set(pinned) == expected
    racy = [pinned[f"pattern/{name}/baseline"] for name, pattern
            in PATTERNS.items() if pattern.expected_racy]
    assert racy and all(cell["races"] for cell in racy)
    assert all(pinned[f"localize/{t}"] for t in LOCALIZE_TARGETS)


if __name__ == "__main__":
    DATA.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
