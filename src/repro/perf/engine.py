"""The performance engine: recorded vectorized execution.

Algorithms at the performance level are ordinary numpy code, but every
access to *shared* data goes through a :class:`Recorder`, which

* looks up the access kind of the named site under each variant
  (consulting the algorithm's :class:`~repro.core.transform.AccessPlan`
  and the race-removal transform),
* counts the access into the matching bucket of each variant's
  :class:`~repro.gpu.timing.AccessStats`, and
* for atomic streams, measures same-address contention (collisions
  within the round's access vector — CC/MST's hot set representatives).

``run_algorithm`` is the single entry point the study framework uses.
It is internally split into **record** (:func:`record_trace` — run the
vectorized algorithm once per staleness class and seed it consumed,
and once for both variants unless it read one)
and **replay** (:func:`replay_trace` — price a cached trace for a
device and repetition), with an optional
:class:`~repro.perf.trace.TraceCache` so a multi-device,
multi-repetition sweep executes each configuration's functional work
once instead of once per device and repetition.  Its cache half,
:func:`cached_trace` then :func:`replay_run`, needs only the graph's
fingerprint, which is how a parallel sweep's parent prices cached
cells without building their graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.transform import AccessPlan, plan_for, site_kind
from repro.core.variants import Variant
from repro.errors import StudyError
from repro.gpu.accesses import AccessKind, MemoryOrder
from repro.gpu.device import DeviceSpec, device_key
from repro.gpu.timing import AccessStats, TimingModel
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.telemetry.spans import get_spans
from repro.utils.arrays import sorted_unique
from repro.perf.trace import (
    ANY_SEED,
    ANY_STALENESS,
    Trace,
    output_fingerprint,
    plan_fingerprint,
    stable_config_hash,
    trace_key,
)


@dataclass
class PerfRun:
    """Outcome of one performance-level run."""

    algorithm: str
    variant: Variant
    device: DeviceSpec
    output: dict[str, Any]
    stats: AccessStats
    runtime_ms: float
    rounds: int


class Recorder:
    """Counts the shared-memory traffic of one run.

    The recorder sees the device only through ``staleness_rounds`` (the
    register-caching visibility constant) — this is what makes recorded
    traces device-independent within a staleness class, so the trace
    cache can replay one execution on every device that shares the
    constant.  Pass either a full :class:`DeviceSpec` (the constant is
    taken from it) or ``staleness_rounds`` directly (the record path).

    ``seed`` is the repetition's randomization seed.  Runners read it
    only through :meth:`repetition_seed`, and both parameters are
    tracked the same way: an execution that never consumes one is
    identical for every value of it, so its trace is keyed with the
    matching wildcard (:data:`~repro.perf.trace.ANY_STALENESS`,
    :data:`~repro.perf.trace.ANY_SEED`).

    The variant is tracked the same way.  The two variants of a code
    differ only in the access kind of each site, so one execution is
    counted for every variant at once: each :meth:`load`, :meth:`store`
    and :meth:`rmw` lands in every variant's buckets, priced by that
    variant's kind of the site, and :meth:`stats_for` reads any of them
    (:attr:`stats` is ``variant``'s).  A runner reads a site's kind only
    through :meth:`site_kind`; that consumes the variant, since the
    execution may now differ between variants, and from then on the
    recorder counts ``variant`` alone (:attr:`variants`).
    """

    def __init__(self, plan: AccessPlan, variant: Variant,
                 device: DeviceSpec | None = None, *,
                 staleness_rounds: int | None = None,
                 seed: int = 0) -> None:
        self.plan = plan
        self.variant = variant
        self.device = device
        if staleness_rounds is None:
            if device is None:
                raise StudyError("pass either device or staleness_rounds")
            staleness_rounds = device.plain_staleness_rounds
        self.staleness_rounds = int(staleness_rounds)
        #: set when an execution actually consumes the constant; traces
        #: that never do are valid for every staleness class
        self.staleness_consulted = False
        self._seed = int(seed)
        #: set when an execution actually reads the seed; traces that
        #: never do are valid for every repetition
        self.seed_consulted = False
        #: the variants this execution is counted for, ``variant``
        #: first; :meth:`site_kind` narrows it to ``(variant,)``
        self.variants = (variant,) + tuple(v for v in Variant
                                           if v is not variant)
        self._plans = tuple(plan_for(plan, v) for v in self.variants)
        #: per counted variant, in :attr:`variants` order
        self._tallies = [AccessStats() for _ in self.variants]
        #: site name -> per counted variant, its (kind, order weight)
        self._resolved: dict[str, tuple[tuple[AccessKind, float], ...]] = {}
        self._footprints: dict[str, float] = {}

    @property
    def stats(self) -> AccessStats:
        """The traffic counted for ``variant``."""
        return self.stats_for(self.variant)

    def stats_for(self, variant: Variant) -> AccessStats:
        """The traffic counted for ``variant``, one of :attr:`variants`."""
        return self._tallies[self.variants.index(variant)]

    # ------------------------------------------------------------------
    def _count(self, indices: np.ndarray | None, count: float | None) -> float:
        if count is not None:
            return float(count)
        if indices is None:
            raise StudyError("pass either indices or count")
        return float(np.asarray(indices).shape[0])

    def _contention(self, indices: np.ndarray | None) -> float:
        if indices is None:
            return 0.0
        idx = np.asarray(indices)
        if idx.size == 0:
            return 0.0
        return float(idx.shape[0] - sorted_unique(idx).shape[0])

    def _store_contention(self, indices: np.ndarray | None, n: float,
                          distinct: int | None) -> float:
        if distinct is not None:
            return float(n - distinct)
        return self._contention(indices)

    @staticmethod
    def _bucket(s: AccessStats, kind: AccessKind, n: float,
                store: bool) -> None:
        if kind is AccessKind.PLAIN:
            if store:
                s.plain_stores += n
            else:
                s.plain_loads += n
        elif kind is AccessKind.VOLATILE:
            if store:
                s.volatile_stores += n
            else:
                s.volatile_loads += n
        else:
            if store:
                s.atomic_stores += n
            else:
                s.atomic_loads += n

    # ------------------------------------------------------------------
    def _site(self, name: str):
        """Site ``name`` of ``variant``'s effective plan."""
        return self._plans[0].site(name)

    #: relative fence strength per memory order (relaxed is free;
    #: seq_cst forbids all reordering and costs double the one-sided
    #: acquire/release orders)
    ORDER_WEIGHT = {
        MemoryOrder.RELAXED: 0.0,
        MemoryOrder.ACQUIRE: 1.0,
        MemoryOrder.RELEASE: 1.0,
        MemoryOrder.ACQ_REL: 1.0,
        MemoryOrder.SEQ_CST: 2.0,
    }

    def _resolve(self, name: str) -> tuple[tuple[AccessKind, float], ...]:
        """Per counted variant, the kind of site ``name`` and the fence
        weight an access to it carries; resolved once per site."""
        entry = self._resolved.get(name)
        if entry is None:
            entry = tuple(
                (site.kind, self.ORDER_WEIGHT[site.order]
                 if site.kind is AccessKind.ATOMIC else 0.0)
                for site in (p.site(name) for p in self._plans))
            self._resolved[name] = entry
        return entry

    def load(self, site: str, indices: np.ndarray | None = None,
             count: float | None = None) -> None:
        """Record loads at ``site`` (one per index, or ``count``)."""
        n = self._count(indices, count)
        for s, (kind, weight) in zip(self._tallies, self._resolve(site)):
            self._bucket(s, kind, n, store=False)
            if weight:
                s.ordered_atomics += n * weight
        # same-address atomic *loads* do not serialize on the modelled
        # hardware (L2 read combining); only stores and RMWs contend

    def store(self, site: str, indices: np.ndarray | None = None,
              count: float | None = None,
              distinct: int | None = None) -> None:
        """Record stores at ``site``.

        ``distinct`` is the number of different addresses among the
        ``count`` stores, for a caller that knows it without building
        the index array: on an ATOMIC site the stores then contend
        ``count - distinct`` times, exactly what ``indices`` with
        ``count`` entries and ``distinct`` different values would
        charge.
        """
        n = self._count(indices, count)
        contended = None
        for s, (kind, weight) in zip(self._tallies, self._resolve(site)):
            self._bucket(s, kind, n, store=True)
            if weight:
                s.ordered_atomics += n * weight
            if kind is AccessKind.ATOMIC:
                if contended is None:
                    contended = self._store_contention(indices, n, distinct)
                s.contended_atomics += contended

    def rmw(self, site: str, indices: np.ndarray | None = None,
            count: float | None = None) -> None:
        """Record read-modify-write atomics (atomic in *both* variants)."""
        n = self._count(indices, count)
        contended = self._contention(indices)
        for s, (_kind, weight) in zip(self._tallies, self._resolve(site)):
            s.atomic_rmws += n
            if weight:
                s.ordered_atomics += n * weight
            s.contended_atomics += contended

    def structure(self, count: float) -> None:
        """Read-only CSR structure loads: plain in both variants (no
        thread ever writes the graph, so these cannot race)."""
        for s in self._tallies:
            s.plain_loads += float(count)

    def compute(self, ops: float) -> None:
        """Non-memory work (index arithmetic, comparisons)."""
        for s in self._tallies:
            s.compute_ops += float(ops)

    def round(self, launches: int = 1) -> None:
        """One host-side iteration: ``launches`` kernel launches."""
        for s in self._tallies:
            s.rounds += launches

    def touch(self, name: str, nbytes: float) -> None:
        """Declare data footprint (unique bytes) of array ``name``."""
        self._footprints[name] = max(self._footprints.get(name, 0.0),
                                     float(nbytes))
        total = sum(self._footprints.values())
        for s in self._tallies:
            s.footprint_bytes = total

    # ------------------------------------------------------------------
    def site_kind(self, name: str) -> AccessKind:
        """Consume the variant: the access kind of site ``name`` under
        ``variant``, the one way a runner may read it.

        An execution that branches on the answer may differ between
        variants, so the recorder drops every other variant's counts
        and the recording yields ``variant``'s trace alone.  Honours
        :func:`repro.gpu.overrides.site_kind_overrides`, like the SIMT
        kernels' lookup.
        """
        if len(self.variants) > 1:
            self.variants = self.variants[:1]
            self._plans = self._plans[:1]
            self._tallies = self._tallies[:1]
            self._resolved = {site: entry[:1]
                              for site, entry in self._resolved.items()}
        return site_kind(self.plan, self.variant, name)

    def staleness(self, site: str) -> int:
        """Visibility delay (rounds) readers of ``site`` experience.

        Non-zero only for PLAIN sites — the register-caching compiler
        model — and scaled by the device's staleness constant.  Reads
        the site's kind, so it consumes the variant.
        """
        if self.site_kind(site) is AccessKind.PLAIN:
            return self.visibility_delay()
        return 0

    def visibility_delay(self) -> int:
        """Consume the staleness constant (marks the recording as
        staleness-class-dependent; see :data:`~repro.perf.trace
        .ANY_STALENESS`)."""
        self.staleness_consulted = True
        return self.staleness_rounds

    def repetition_seed(self) -> int:
        """Consume the repetition seed (marks the recording as
        seed-dependent; see :data:`~repro.perf.trace.ANY_SEED`)."""
        self.seed_consulted = True
        return self._seed


#: relative sigma of the run-to-run noise model (the paper reports a
#: median relative deviation of 0.6 % across its nine hardware runs)
RUNTIME_NOISE_SIGMA = 0.004


def noise_multiplier(algorithm_key: str, variant: Variant,
                     seed: int) -> float:
    """The seeded run-to-run noise factor of one repetition.

    Stands in for hardware variance (clock jitter, scheduling) so the
    paper's median-of-nine protocol remains meaningful on
    configurations whose computation is otherwise seed-invariant.
    Seeded by (seed, algorithm, variant) only — never by the device —
    which is what lets a replayed trace reproduce the direct engine's
    runtime bit-for-bit.  Uses a stable digest, not Python's
    per-process randomized string hash, so the factor is identical
    across interpreter invocations and pool workers.
    """
    rng = np.random.default_rng(
        (seed * 2654435761
         + stable_config_hash(algorithm_key, variant)) & 0xFFFFFFFF
    )
    return 1.0 + float(np.clip(rng.normal(0.0, RUNTIME_NOISE_SIGMA),
                               -0.015, 0.015))


def record_trace(algorithm, graph, variant: Variant, seed: int,
                 staleness_rounds: int, plan: AccessPlan | None = None
                 ) -> Trace:
    """Run the functional execution once and capture its trace.

    This is the expensive half of the record/replay split: it executes
    ``perf_runner(graph, recorder)`` (the full vectorized algorithm)
    under a :class:`Recorder` holding the staleness class and the
    repetition seed, and returns the :class:`~repro.perf.trace.Trace`
    that :func:`replay_trace` can price for *any* device sharing that
    staleness constant.  A parameter the runner never consumed is keyed
    with its wildcard (:data:`~repro.perf.trace.ANY_STALENESS`,
    :data:`~repro.perf.trace.ANY_SEED`), so the one recording serves
    every device class, or every repetition, it is identical for.

    The trace is ``variant``'s.  When the runner never read a site's
    kind (:meth:`Recorder.site_kind`), the execution is the other
    variants' too, and their traces ride along as ``trace.siblings``:
    each equals what a recording of its own variant would return.
    """
    if seed == ANY_SEED:
        raise StudyError(f"seed {ANY_SEED} is reserved for the ANY_SEED "
                         "wildcard")
    if plan is None:
        plan = algorithm_plan(algorithm)
    recorder = Recorder(plan, variant, staleness_rounds=staleness_rounds,
                        seed=seed)
    with get_spans().span("perf.record", algorithm=algorithm.key,
                          variant=variant.value, seed=seed):
        output = algorithm.perf_runner(graph, recorder)
    common = dict(
        algorithm=algorithm.key,
        seed=int(seed) if recorder.seed_consulted else ANY_SEED,
        staleness_rounds=(int(staleness_rounds)
                          if recorder.staleness_consulted
                          else ANY_STALENESS),
        graph_fp=graph.fingerprint(),
        plan_fp=plan_fingerprint(plan),
        output_fp=output_fingerprint(output),
        output=output,
    )
    siblings = tuple(Trace(variant=other, stats=recorder.stats_for(other),
                           sibling_of=variant, **common)
                     for other in recorder.variants[1:])
    return Trace(variant=variant, stats=recorder.stats, siblings=siblings,
                 **common)


def replay_trace(trace: Trace, device: DeviceSpec, seed: int) -> float:
    """Price a recorded trace for one device and repetition (ms).

    Bit-identical to what the direct engine computes for the same
    (algorithm, graph, variant, seed) on ``device``: the same
    :class:`~repro.gpu.timing.TimingModel` call on the same stats,
    scaled by the noise factor of the repetition ``seed``.  The noise
    is drawn from ``seed``, never from ``trace.seed``, which is
    :data:`~repro.perf.trace.ANY_SEED` for a recording that serves
    every repetition.
    """
    noise = noise_multiplier(trace.algorithm, trace.variant, seed)
    return TimingModel(device).estimate_ms(trace.stats) * noise


def run_algorithm(algorithm, graph, device: DeviceSpec, variant: Variant,
                  seed: int = 0, faults=None, trace_cache=None,
                  need_output: bool = True, memory_model=None) -> PerfRun:
    """Run one (algorithm, input, device, variant) configuration.

    ``algorithm`` is an :class:`~repro.core.variants.AlgorithmInfo`;
    its ``perf_runner(graph, recorder)`` does the work and returns
    the output arrays.  The runtime is then priced by the timing model,
    plus a small seeded noise term standing in for hardware run-to-run
    variance.

    ``trace_cache`` is an optional
    :class:`~repro.perf.trace.TraceCache`: when the cache holds a trace
    for this (algorithm, graph, variant, seed, staleness-class), the
    functional execution is skipped entirely and the cached stats are
    re-priced for ``device`` — bit-identical to the direct path,
    microseconds instead of a full numpy execution.  The lookup also
    probes the seed and staleness wildcards, so one recording that
    never read a parameter serves every value of it.  ``need_output``
    forces a fresh recording when the cached trace carries no output
    arrays (disk-loaded traces never do); callers that validate
    outputs must set it.  Replayed runs may therefore have
    ``output=None`` when ``need_output`` is false.  A recording's
    siblings (see :func:`record_trace`) are stored too, each under its
    own key unless a lookup finds that key held, so the same
    configuration's other variant replays instead of executing again.

    ``faults`` is an optional
    :class:`~repro.gpu.faults.FaultInjector`: it may abort the run with
    a :class:`~repro.errors.TransientKernelFault` before any work, and
    afterwards may stretch the runtime (scheduler stall), raise
    :class:`~repro.errors.DeadlockError` (stuck-stale polling loop), or
    silently corrupt the output arrays (torn/dropped non-atomic
    stores) — each gated on the *variant's* exposure, so race-free
    plans are immune to the data-corrupting kinds.  ``faults=None``
    leaves the run bit-identical to the unfaulted engine.  A faulted
    run never touches the trace cache: injection mutates outputs and
    runtimes in ways a shared recording must not absorb.

    ``memory_model`` (a :class:`~repro.memmodel.models.MemoryModel` or
    spec string) prices the run under that model's semantics: every
    shared atomic site's order is lifted to the model's floor before
    recording, so e.g. ``ptx:acq_rel`` answers "what would this
    variant cost with acquire/release atomics?".  The transformed plan
    has its own fingerprint, so model-priced traces never collide with
    default ones in a shared cache.  None keeps the paper's relaxed
    default (an identity transform).
    """
    plan = algorithm_plan(algorithm)
    if memory_model is not None:
        from repro.memmodel.models import resolve_model

        plan = resolve_model(memory_model).apply_to_plan(plan)
    staleness = device.plain_staleness_rounds

    if faults is not None:
        faults.begin_perf_run(algorithm.key, variant, plan)
        trace = record_trace(algorithm, graph, variant, seed, staleness,
                             plan=plan)
        runtime = replay_trace(trace, device, seed)
        runtime = faults.perf_finish(trace.output, runtime)
        return _perf_run(algorithm, variant, device, trace, runtime,
                         input_name=graph.name, source="fault")

    if trace_cache is not None:
        trace = cached_trace(trace_cache, algorithm, graph.fingerprint(),
                             variant, seed, staleness, plan,
                             need_output=need_output)
        if trace is not None:
            return replay_run(algorithm, trace, device, seed, graph.name)
    trace = record_trace(algorithm, graph, variant, seed, staleness,
                         plan=plan)
    if trace_cache is not None:
        trace_cache.store(trace)
        for sibling in trace.siblings:
            # a lookup first, as the sibling's own run would make: the
            # read ladder quarantines a corrupt file before the store
            # replaces it, and a trace already held is not rewritten
            if trace_cache.lookup(sibling.key(),
                                  need_output=need_output) is None:
                trace_cache.store(sibling)
    return _perf_run(algorithm, variant, device, trace,
                     replay_trace(trace, device, seed),
                     input_name=graph.name, source="record")


def cached_trace(trace_cache, algorithm, graph_fp: str, variant: Variant,
                 seed: int, staleness_rounds: int, plan: AccessPlan,
                 need_output: bool = False) -> Trace | None:
    """The cached trace :func:`run_algorithm` would replay, or None.

    Needs only the fingerprint of the graph the run would execute on,
    so a caller that knows it can price a cached configuration without
    building the graph.  Probes the most general key first: a recording
    that consumed neither the seed nor the constant (cc, scc,
    pre-weighted mst) hits on the first probe.  Any hit is valid,
    because an execution that never read a parameter is identical for
    every value of it.
    """
    plan_fp = plan_fingerprint(plan)
    for probe_seed, probe_staleness in ((ANY_SEED, ANY_STALENESS),
                                        (seed, ANY_STALENESS),
                                        (seed, staleness_rounds),
                                        (ANY_SEED, staleness_rounds)):
        trace = trace_cache.lookup(
            trace_key(algorithm.key, graph_fp, variant, probe_seed,
                      probe_staleness, plan_fp),
            need_output=need_output)
        if trace is not None:
            return trace
    return None


def replay_run(algorithm, trace: Trace, device: DeviceSpec, seed: int,
               input_name: str) -> PerfRun:
    """The run :func:`run_algorithm` returns when ``trace`` is the
    cache hit for repetition ``seed`` on ``device``."""
    return _perf_run(algorithm, trace.variant, device, trace,
                     replay_trace(trace, device, seed),
                     input_name=input_name, source="replay")


#: cell-granularity labels of every sim-scope run metric — one pool
#: task owns each labelset, which is what keeps float accumulation
#: order (and therefore merged parallel registries) identical to serial
CELL_LABELS = ("algorithm", "input", "device", "variant")


def _publish_run(run: PerfRun, input_name: str, source: str) -> None:
    """Emit the per-run metric family set for one priced run."""
    reg = get_registry()
    if not reg.enabled:
        return
    labels = (run.algorithm, input_name, device_key(run.device),
              run.variant.value)
    reg.counter("repro_perf_runs_total",
                "Performance-level runs priced", CELL_LABELS
                ).inc(1, *labels)
    reg.counter("repro_perf_rounds_total",
                "Host-side kernel rounds executed", CELL_LABELS
                ).inc(run.rounds, *labels)
    reg.histogram("repro_runtime_ms",
                  "Priced runtime of one repetition (ms)", CELL_LABELS
                  ).observe(run.runtime_ms, *labels)
    s = run.stats
    acc = reg.counter("repro_accesses_total",
                      "Shared-memory accesses by class and operation",
                      CELL_LABELS + ("kind", "op"))
    for kind, op, n in (
        ("plain", "load", s.plain_loads),
        ("plain", "store", s.plain_stores),
        ("volatile", "load", s.volatile_loads),
        ("volatile", "store", s.volatile_stores),
        ("atomic", "load", s.atomic_loads),
        ("atomic", "store", s.atomic_stores),
        ("atomic", "rmw", s.atomic_rmws),
    ):
        if n:
            acc.inc(n, *labels, kind, op)
    if s.contended_atomics:
        reg.counter("repro_contended_atomics_total",
                    "Same-address atomic store/RMW collisions", CELL_LABELS
                    ).inc(s.contended_atomics, *labels)
    # the Section VI.A mechanism: atomics and volatiles bypass L1 and
    # are served at L2, so racy->atomic conversion drains the L1
    bypass = (s.atomic_loads + s.atomic_stores + s.atomic_rmws
              + s.volatile_loads + s.volatile_stores)
    if bypass:
        reg.counter("repro_atomic_l1_bypass_total",
                    "Accesses bypassing L1 (atomics + volatiles served "
                    "at L2)", CELL_LABELS).inc(bypass, *labels)
    bd = TimingModel(run.device).estimate(s)
    reg.gauge("repro_l1_hit_rate",
              "L1 hit rate of plain accesses (analytic cache model)",
              CELL_LABELS).set(bd.l1_hit_rate, *labels)
    reg.gauge("repro_l2_hit_rate",
              "L2 hit rate of plain-access L1 misses", CELL_LABELS
              ).set(bd.l2_hit_rate, *labels)
    reg.gauge("repro_atomic_l2_hit_rate",
              "L2 hit rate of L1-bypassing (atomic/volatile) accesses",
              CELL_LABELS).set(bd.atomic_l2_hit_rate, *labels)
    # record vs replay is an operational property of this process's
    # trace cache (shared on disk), not of the simulated execution
    reg.counter("repro_perf_trace_source_total",
                "How each run's trace was obtained", ("source",),
                scope=SCOPE_PROCESS).inc(1, source)


def _perf_run(algorithm, variant: Variant, device: DeviceSpec,
              trace: Trace, runtime: float, *,
              input_name: str = "", source: str = "record") -> PerfRun:
    run = PerfRun(
        algorithm=algorithm.key,
        variant=variant,
        device=device,
        output=trace.output,
        stats=trace.stats,
        runtime_ms=runtime,
        rounds=trace.rounds,
    )
    _publish_run(run, input_name, source)
    return run


def algorithm_plan(algorithm) -> AccessPlan:
    """Fetch the ACCESS_PLAN declared by the algorithm's module."""
    import importlib

    module = importlib.import_module(algorithm.module)
    try:
        return module.ACCESS_PLAN
    except AttributeError:
        raise StudyError(
            f"module {algorithm.module} does not declare ACCESS_PLAN"
        ) from None
