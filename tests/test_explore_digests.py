"""Pinned explorations: every explored run must stay byte-identical.

The explorer, the SIMT interpreter and the race engine are tuned for
speed, and each such change must leave every exploration exactly as it
was.  This module pins them.  For each exploration it stores every
:class:`~repro.check.explore.ExploreResult` field except
``wall_seconds``, and one sha256 over all of its runs: each run's events
repr, final memory fingerprint, error text, ``check_ok`` and the
:class:`~repro.gpu.simt.LaunchStats` of every launch it made.

The explorations are the ones other modules already run, so pinning
them costs only the hashing:

* the four repair targets the ledger's repair-smoke workload runs
  (``tests/test_repair_pipeline.py``'s fixtures);
* the pattern corpus, both variants, with ``state_dedupe`` off and on
  (``tests/test_schedule_explorer.py``'s backtrack-scan comparison);
* the litmus corpus under sc, tso, relaxed_gpu and ptx with schedulable
  drains (``tests/test_memmodel.py``'s golden fixture).

For a change that must keep explorations identical, generate
``tests/data/explore_digests.json`` from the commit before it, never
from the changed code::

    PYTHONPATH=<that commit's src> python tests/test_explore_digests.py

writes the file next to this module.  A change that alters explorations
on purpose regenerates it from its own code and says which entries
moved and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from repro.check.explore import ScheduleExplorer
from repro.gpu.simt import SimtExecutor

DATA = Path(__file__).parent / "data" / "explore_digests.json"

#: the repair calls whose explorations are pinned, as the repair
#: pipeline tests' fixtures make them
REPAIR_CALLS = {
    "twophase": {},
    "cc": {"devices": ("titanv", "a100")},
    "apsp_shared": {},
    "mis_packed": {},
}
LITMUS_MODELS = ("sc", "tso", "relaxed_gpu", "ptx")


def _stats_record(stats) -> list:
    record = []
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value = [(k.value, v) for k, v in value.items()]
        record.append((f.name, value))
    return record


def _run_record(outcome, launches: list) -> bytes:
    error = outcome.error
    return repr((
        outcome.events,
        outcome.fingerprint.hex() if outcome.fingerprint else None,
        None if error is None else f"{type(error).__name__}: {error}",
        outcome.check_ok,
        [_stats_record(s) for s in launches],
    )).encode()


def _result_record(result, runs_sha256: str) -> dict:
    record = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result)
              if f.name not in ("wall_seconds", "budget")}
    record["budget"] = dataclasses.asdict(result.budget)
    record["runs_sha256"] = runs_sha256
    return record


@contextmanager
def capture():
    """Record every exploration started inside the block, in order."""
    explorations: list[dict] = []
    sinks: list[list] = []
    explore = ScheduleExplorer.explore
    launch = SimtExecutor.launch

    def recording_launch(self, *args, **kwargs):
        stats = launch(self, *args, **kwargs)
        if sinks:
            sinks[-1].append(stats)
        return stats

    def recording_explore(self):
        digest = hashlib.sha256()
        runner = self.runner

        def hashing_runner(scheduler, probe=None):
            launches: list = []
            sinks.append(launches)
            outcome = None
            try:
                outcome = runner(scheduler, probe)
            finally:
                sinks.pop()
                digest.update(b"redundant" if outcome is None
                              else _run_record(outcome, launches))
            return outcome

        self.runner = hashing_runner
        try:
            result = explore(self)
        finally:
            self.runner = runner
        explorations.append(_result_record(result, digest.hexdigest()))
        return result

    with mock.patch.object(ScheduleExplorer, "explore", recording_explore), \
            mock.patch.object(SimtExecutor, "launch", recording_launch):
        yield explorations


def load_digests() -> dict:
    return json.loads(DATA.read_text())


def pattern_key(name: str, variant, state_dedupe: bool) -> str:
    return f"pattern/{name}/{variant.value}/dedupe={int(state_dedupe)}"


def assert_pinned(key: str, explorations: list[dict]) -> None:
    """``explorations`` must equal the pinned records under ``key``."""
    pinned = load_digests()[key]
    assert len(explorations) == len(pinned), key
    for i, (got, want) in enumerate(zip(explorations, pinned)):
        assert got == want, f"{key}: exploration {i} differs"


# ----------------------------------------------------------------------
# Generation (run against the commit being pinned)
# ----------------------------------------------------------------------

def generate() -> dict:
    from repro.check import BUDGETS
    from repro.check.harness import _make_runner, program_from_pattern
    from repro.core.variants import Variant
    from repro.memmodel.litmus import run_corpus
    from repro.patterns import PATTERNS
    from repro.repair import repair

    digests: dict[str, list[dict]] = {}
    for target, options in REPAIR_CALLS.items():
        with capture() as explorations:
            repair(target, budget="smoke", **options)
        digests[f"repair/{target}"] = explorations
    budget = BUDGETS["smoke"]
    for name in sorted(PATTERNS):
        for variant in Variant:
            for dedupe in (False, True):
                runner = _make_runner(program_from_pattern(name, variant),
                                      budget, None, True)
                with capture() as explorations:
                    ScheduleExplorer(runner, budget=budget,
                                     on_run=lambda outcome, log: False,
                                     state_dedupe=dedupe).explore()
                digests[pattern_key(name, variant, dedupe)] = explorations
    with capture() as explorations:
        run_corpus(list(LITMUS_MODELS))
    digests["litmus"] = explorations
    return digests


# ----------------------------------------------------------------------
# Tests of the pinning itself (the pins are checked where the
# explorations run)
# ----------------------------------------------------------------------

class TestDigestData:
    def test_covers_every_pinned_exploration(self):
        from repro.core.variants import Variant
        from repro.memmodel.litmus import CORPUS
        from repro.patterns import PATTERNS

        digests = load_digests()
        expected = {f"repair/{t}" for t in REPAIR_CALLS}
        expected |= {pattern_key(name, variant, dedupe)
                     for name in PATTERNS for variant in Variant
                     for dedupe in (False, True)}
        expected.add("litmus")
        assert set(digests) == expected
        assert len(digests["litmus"]) == len(CORPUS) * len(LITMUS_MODELS)
        assert all(digests[f"repair/{t}"] for t in REPAIR_CALLS)

    def test_capture_is_repeatable_and_sensitive(self):
        from repro.check import BUDGETS
        from repro.check.harness import _make_runner, program_from_pattern

        budget = BUDGETS["smoke"]

        def explore(invariant_ok: bool):
            program = program_from_pattern("lost_update")
            if not invariant_ok:
                program = dataclasses.replace(
                    program, invariant=lambda mem, handles: False)
            runner = _make_runner(program, budget, None, True)
            with capture() as explorations:
                ScheduleExplorer(runner, budget=budget).explore()
            return explorations

        first, second = explore(True), explore(True)
        assert first == second
        assert len(first) == 1 and first[0]["schedules"] > 1
        # one run-level field differs: the digest must notice
        changed = explore(False)
        assert changed[0]["runs_sha256"] != first[0]["runs_sha256"]
        assert ({k: v for k, v in changed[0].items() if k != "runs_sha256"}
                == {k: v for k, v in first[0].items() if k != "runs_sha256"})


if __name__ == "__main__":
    DATA.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}", file=sys.stderr)
