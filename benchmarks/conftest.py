"""Pytest fixtures for the benchmark harness (helpers in _harness.py)."""

from __future__ import annotations

import pytest

from _harness import CHECKPOINT, JOBS, REPS, RETRIES, SCALE, TRACE_CACHE

from repro import Study


@pytest.fixture(scope="session")
def study() -> Study:
    """The shared memoized study.

    A failing cell surfaces as a :class:`~repro.errors.StudyError` for
    just that bench instead of aborting the whole session, transient
    faults are retried, and an
    optional checkpoint store (``REPRO_CHECKPOINT``) lets an
    interrupted session resume: a cell published there is served, not
    recomputed.

    The on-disk trace cache (``REPRO_TRACE_CACHE``) means a trace
    recorded for one device is re-priced for the other devices of the
    same staleness class, and recordings persist across bench sessions.
    """
    return Study(reps=REPS, scale=SCALE, retries=RETRIES,
                 checkpoint=CHECKPOINT, trace_cache=TRACE_CACHE,
                 jobs=JOBS)
