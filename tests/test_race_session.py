"""Incremental race analysis against a fresh analysis of every run.

:func:`repro.check.harness.check` analyses the runs of one exploration
through one :class:`~repro.gpu.racecheck.RaceSession`, which resumes
from the prefix a run shares with the run before it.  For every
exploration of ``tests/test_explore_digests.py``'s pinned corpus, the
races and failures it collects must be the ones an ``on_run`` collects
when it analyses each run from scratch with a fresh
:class:`~repro.gpu.racecheck.RaceDetector` and dedupes by site — the
same reports, in the same order, with the same descriptions, site keys
and predicted flags.  The explorations are checked against the pinned
digests too, so the comparison runs on exactly the pinned corpus.

The litmus explorations do not go through ``check()`` (they collect
outcomes, not races), so there the session is compared with the fresh
analysis directly, under each cell's memory model.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.check import BUDGETS, check
from repro.check.explore import ScheduleExplorer
from repro.core.variants import Variant
from repro.gpu.racecheck import RaceDetector
from repro.memmodel import litmus
from repro.memmodel.models import get_model
from repro.patterns import PATTERNS
from tests.test_explore_digests import (
    LITMUS_MODELS,
    REPAIR_CALLS,
    assert_pinned,
    capture,
    pattern_key,
)


class Collected:
    """``check()``'s ``on_run`` bookkeeping over one exploration, with
    the per-run analysis supplied: races deduped by site across runs,
    the first race failure and the first invariant failure.  It also
    notes, per racy site pair, whether any run reported it as an actual
    race rather than only as a predicted one."""

    def __init__(self, analyze) -> None:
        self.analyze = analyze
        self.races: list = []
        self.failures: list[tuple] = []
        self._seen: set[tuple] = set()
        #: site id -> some run reported the pair as an actual race
        self.witnessed: dict[str, bool] = {}

    @property
    def predicted_only(self) -> int:
        """Site pairs every run reported only as predicted: no explored
        schedule witnesses them."""
        return sum(not seen for seen in self.witnessed.values())

    def __call__(self, outcome, log) -> None:
        fresh = []
        witnessed = self.witnessed
        for report in self.analyze(outcome.events):
            site_id = report.site_id
            witnessed[site_id] = (witnessed.get(site_id, False)
                                  or not report.predicted)
            if report.site_key not in self._seen:
                self._seen.add(report.site_key)
                fresh.append(report)
        self.races.extend(fresh)
        kinds = {kind for kind, _, _ in self.failures}
        if fresh and "race" not in kinds:
            self.failures.append(("race", fresh[0].describe(),
                                  log.compact()))
        if outcome.check_ok is False and "invariant" not in kinds:
            self.failures.append(("invariant", None, log.compact()))


def fresh_per_run(**detector_options) -> Collected:
    return Collected(
        lambda events: RaceDetector(**detector_options).analyze(events))


def races_of(races) -> list[tuple]:
    return [(r.describe(), r.site_key, r.predicted) for r in races]


def failures_of(report) -> list[tuple]:
    return [(f.kind, f.detail if f.kind == "race" else None,
             f.log.compact()) for f in report.failures]


@contextmanager
def also_collected(make_collectors):
    """Every exploration started inside the block also hands each run
    it passes to ``on_run`` to the collectors ``make_collectors()``
    returns, before its own ``on_run`` sees it.  Yields the list of
    collector tuples, one per exploration, in order."""
    collected: list[tuple] = []
    explore = ScheduleExplorer.explore

    def collecting_explore(self):
        collectors = make_collectors()
        collected.append(collectors)
        on_run = self.on_run

        def both(outcome, log):
            for collector in collectors:
                collector(outcome, log)
            return on_run(outcome, log) if on_run is not None else False

        self.on_run = both
        try:
            return explore(self)
        finally:
            self.on_run = on_run

    with mock.patch.object(ScheduleExplorer, "explore", collecting_explore):
        yield collected


def assert_same(report, fresh: Collected, where: str) -> None:
    assert races_of(report.races) == races_of(fresh.races), where
    assert failures_of(report) == fresh.failures, where


@pytest.mark.parametrize("target", sorted(REPAIR_CALLS))
def test_repair_verifications(target):
    from repro.repair import repair, verify

    reports = []
    real_check = verify.check

    def recording_check(*args, **kwargs):
        reports.append(real_check(*args, **kwargs))
        return reports[-1]

    with capture() as explorations, \
            mock.patch.object(verify, "check", recording_check), \
            also_collected(lambda: (fresh_per_run(),)) as collected:
        repair(target, budget="smoke", **REPAIR_CALLS[target])
    assert_pinned(f"repair/{target}", explorations)
    assert len(reports) == len(collected) == len(explorations)
    for i, (report, (fresh,)) in enumerate(zip(reports, collected)):
        assert_same(report, fresh, f"repair/{target} exploration {i}")
    assert any(report.races for report in reports)


@pytest.mark.parametrize("name", sorted(PATTERNS))
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("state_dedupe", [False, True])
def test_pattern_corpus(name, variant, state_dedupe):
    with capture() as explorations, \
            also_collected(lambda: (fresh_per_run(),)) as collected:
        report = check(name, variant=variant, budget=BUDGETS["smoke"],
                       state_dedupe=state_dedupe, max_minimized=0)
    assert_pinned(pattern_key(name, variant, state_dedupe), explorations)
    (fresh,), = collected
    assert_same(report, fresh, pattern_key(name, variant, state_dedupe))


def test_litmus_corpus():
    model = None

    def collectors():
        session = RaceDetector(memory_model=model).session()
        return (Collected(session.analyze),
                fresh_per_run(memory_model=model))

    with capture() as explorations, also_collected(collectors) as collected:
        for test in litmus.CORPUS:
            for key in LITMUS_MODELS:
                model = get_model(key)
                litmus.run_litmus(test, model)
    assert_pinned("litmus", explorations)
    assert len(collected) == len(explorations)
    for i, (session, fresh) in enumerate(collected):
        assert races_of(session.races) == races_of(fresh.races), i
        assert session.failures == fresh.failures, i
    assert any(fresh.races for _, fresh in collected)
