"""The baseline / race-free variant axis and the algorithm registry."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.errors import StudyError


class Variant(enum.Enum):
    """Which version of a code runs: the original with its "benign"
    races, or the validated race-free conversion."""

    BASELINE = "baseline"
    RACE_FREE = "racefree"


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry for one of the six studied codes.

    ``perf_runner(graph, recorder, **options)`` runs the vectorized
    algorithm against a :class:`repro.perf.engine.Recorder` and returns
    its output arrays (a dict of name to array).  It reads the
    repetition seed only through ``recorder.repetition_seed()``, the
    staleness constant only through ``recorder.visibility_delay()`` and
    the variant only through ``recorder.site_kind(name)``, so the
    recorder knows which of the three the trace depends on: a runner
    that never reads a site's kind executes identically for both
    variants, and one execution yields both traces.
    ``options`` are per-algorithm ablation knobs with defaults (e.g.
    SCC's ``trim``).  The SIMT kernels are reachable through the
    algorithm's module for race checking on small inputs.
    """

    key: str
    full_name: str
    directed: bool
    needs_weights: bool
    has_races: bool  # APSP is regular and race-free by construction
    perf_runner: Callable
    module: str


_REGISTRY: dict[str, AlgorithmInfo] = {}


def register_algorithm(info: AlgorithmInfo) -> None:
    if info.key in _REGISTRY:
        raise StudyError(f"algorithm {info.key!r} already registered")
    _REGISTRY[info.key] = info


def get_algorithm(key: str) -> AlgorithmInfo:
    _ensure_loaded()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise StudyError(
            f"unknown algorithm {key!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_algorithms() -> list[AlgorithmInfo]:
    _ensure_loaded()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _ensure_loaded() -> None:
    """Import the algorithm modules so they self-register."""
    if _REGISTRY:
        return
    from repro.algorithms import apsp, cc, gc, mis, mst, scc  # noqa: F401
