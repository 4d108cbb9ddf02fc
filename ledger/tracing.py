"""Span wrappers the traced runs install around repro's public layers.

Each wrapper replaces a function at the module or class attribute its
caller looks up at call time, and records into repro's own span
recorder.  Pool workers are forked from the benchmarked process after
the wrappers are in place, so they inherit them and ship the spans
back inside their existing telemetry records.  ``src/`` is not edited.

Untraced runs install only :func:`install_explore_guard`, which reads
each exploration's result to catch explorations that stop on the
budget's wall-clock cap; it records no spans.
"""

from __future__ import annotations

import functools

from repro import telemetry
from repro.telemetry.spans import get_spans


def _wrap(owner, attr: str, make):
    original = getattr(owner, attr)
    wrapper = functools.wraps(original)(make(original))
    setattr(owner, attr, wrapper)
    return original


def _spanned(name: str, **attrs):
    """A wrapper factory recording one ``name`` span per call."""
    def make(original):
        def wrapper(*args, **kwargs):
            with get_spans().span(name, **attrs):
                return original(*args, **kwargs)
        return wrapper
    return make


def install_spans(with_pool_workers: bool) -> None:
    """Enable span recording and wrap every layer boundary.

    ``with_pool_workers`` also enables the metrics registry, because a
    pool worker ships its spans only alongside a registry snapshot.
    Telemetry-only publishers that run per priced run or per stored
    trace are replaced by no-ops: they exist only while telemetry is on,
    so they would be tracing overhead inside the layers being measured.
    """
    if with_pool_workers:
        telemetry.enable()
    else:
        telemetry.spans.enable()

    import repro.check.explore as explore
    import repro.core.parallel as parallel
    import repro.core.resilience as resilience
    import repro.core.study as study
    import repro.graphs.suite as suite
    import repro.perf.engine as engine
    import repro.perf.trace as trace

    def load(original):
        def wrapper(name, scale=1.0):
            misses = original.cache_info().misses
            with get_spans().span("graphs.load", input=name) as sp:
                graph = original(name, scale)
                sp.set(built=original.cache_info().misses != misses)
            return graph
        return wrapper

    def weight(original):
        def wrapper(graph, seed=12345):
            before = len(suite._WEIGHTED_CACHE)
            with get_spans().span("graphs.weight") as sp:
                out = original(graph, seed)
                sp.set(built=len(suite._WEIGHTED_CACHE) != before)
            return out
        return wrapper

    def lookup(original):
        def wrapper(self, key, need_output=False):
            hits = (self.memory_hits, self.disk_hits)
            with get_spans().span("trace.lookup") as sp:
                found = original(self, key, need_output)
                sp.set(result=("disk" if self.disk_hits != hits[1]
                               else "memory" if self.memory_hits != hits[0]
                               else "miss"))
            return found
        return wrapper

    def store(original):
        def wrapper(self, trace_obj):
            with get_spans().span("trace.store"):
                return original(self, trace_obj)
        return wrapper

    def pool(original):
        def wrapper(config, tasks, jobs, merge, *args, **kwargs):
            with get_spans().span("parallel.pool", jobs=jobs,
                                  tasks=len(tasks)):
                return original(config, tasks, jobs, merge, *args,
                                **kwargs)
        return wrapper

    _wrap(study, "load_suite_graph", load)
    _wrap(study, "weighted_graph", weight)
    _wrap(engine, "replay_trace", _spanned("perf.replay"))
    _wrap(engine, "_publish_run", lambda original: _noop)
    _wrap(trace.TraceCache, "lookup", lookup)
    _wrap(trace.TraceCache, "store", store)
    _wrap(trace.TraceCache, "_publish_disk", lambda original: _noop)
    _wrap(resilience.ResilientStudy, "save_checkpoint",
          _spanned("resilience.checkpoint"))
    _wrap(parallel, "execute_tasks", pool)
    _wrap(explore.ScheduleExplorer, "explore", _explore(record_span=True))


def _noop(*args, **kwargs) -> None:
    return None


#: every exploration result seen in this process (traced or not)
EXPLORATIONS: list[dict] = []


def _explore(record_span: bool):
    def make(original):
        def wrapper(self):
            if record_span:
                with get_spans().span("check.explore") as sp:
                    result = original(self)
                    sp.set(**_explore_attrs(result))
            else:
                result = original(self)
            EXPLORATIONS.append(_explore_attrs(result))
            return result
        return wrapper
    return make


def _explore_attrs(result) -> dict:
    budget = result.budget
    # the explorer's loop leaves on the schedule cap, on an exhausted
    # schedule space (complete), on an on_run stop, or on the clock
    time_capped = (not result.complete and not result.stopped_early
                   and result.schedules < budget.max_schedules)
    return {"schedules": result.schedules, "steps": result.total_steps,
            "truncated": result.truncated_runs,
            "redundant": result.redundant_pruned,
            "wall": result.wall_seconds,
            "max_seconds": budget.max_seconds,
            "time_capped": time_capped}


def install_explore_guard() -> None:
    import repro.check.explore as explore

    _wrap(explore.ScheduleExplorer, "explore", _explore(record_span=False))


def recorded_spans() -> list[dict]:
    return get_spans().snapshot()
