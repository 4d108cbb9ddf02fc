"""Pure helpers of the layer ledger: statistics, span folding, result
digests, the seeded serve-fleet study sequence and the host fingerprint.

Nothing here imports ``repro``; the tests in ``test_ledger.py`` run
these helpers on hand-built inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import time
from collections import defaultdict

# ----------------------------------------------------------------------
# Workload configuration
# ----------------------------------------------------------------------

WORKLOADS = ("sweep-cold", "sweep-warm", "repair-smoke", "serve-fleet")

#: ``repro.gpu.device.DEVICE_ORDER``, repeated so this module stays
#: free of ``repro`` imports
DEVICES = ("titanv", "2070super", "a100", "4090")
REPS = 3
UNDIRECTED_ALGOS = ("cc", "gc", "mis", "mst")

#: the sweep grid: road, mesh, power-law, RMAT, web and internet
#: undirected inputs, plus directed inputs for SCC.  as-skitter, in-2004
#: and klein-bottle record for about a second each but build their
#: graphs in milliseconds, so recording leads a cold sweep even though
#: every pool's forked workers rebuild their graphs; a warm sweep, which
#: records nothing, is still led by graph build.
SWEEP_UNDIRECTED = ("internet", "rmat16.sym", "USA-road-d.NY",
                    "amazon0601", "2d-2e20.sym", "as-skitter", "in-2004")
SWEEP_DIRECTED = ("cold-flow", "web-Google", "klein-bottle")
SWEEP_JOBS = 2

REPAIR_TARGETS = ("cc", "apsp_shared", "twophase", "mis_packed")
REPAIR_BUDGET = "smoke"
#: ``repair()`` options per target, as ``repro repair`` flags give them.
#: mis_packed's full repair (two candidates verified, then shrunk) takes
#: 16-24 s here, longer than a whole run; its first candidate alone
#: (``--max-candidates 1 --no-shrink``) still runs its step-capped
#: explorations, the ones closest to the budget's wall-clock cap.
REPAIR_OPTIONS = {"mis_packed": {"max_candidates": 1, "shrink": False}}

#: serve-fleet: every study names one fresh cell of these inputs ...
SERVE_FRESH_UNDIRECTED = ("rmat16.sym", "USA-road-d.NY", "citationCiteseer",
                          "amazon0601", "2d-2e20.sym")
SERVE_FRESH_DIRECTED = ("web-Google", "flickr", "cold-flow", "toroid-hex",
                        "star")
#: ... plus the base cell of its algorithm, served before timing starts
SERVE_BASE = {"cc": "internet", "gc": "internet", "mis": "internet",
              "mst": "internet", "scc": "toroid-wedge"}
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
#: the clients' sequences are sent in this many phases, so the host
#: can be probed between them (``workloads.TimedRegion``)
SERVE_PHASES = 5


#: end-to-end metrics: (name, unit), all "lower is better".  Times are
#: CPU seconds of the benchmarked process tree: on a shared 2-core host
#: whole runs of the same code landed 25-35% apart in wall time as other
#: tenants came and went.  Wall time and serve-fleet's study latencies
#: are printed and traced, not gated.
END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: per-layer metrics of traced runs: (name, unit, better)
PER_LAYER = (
    ("graphs.build_s", "s", "lower"),
    ("graphs.builds", "count", "lower"),
    ("perf.record_s", "s", "lower"),
    *((f"perf.record_s.{a}", "s", "lower")
      for a in UNDIRECTED_ALGOS + ("scc",)),
    ("perf.records", "count", "lower"),
    ("perf.replay_s", "s", "lower"),
    ("perf.replays", "count", "lower"),
    ("trace.lookup_s", "s", "lower"),
    ("trace.store_s", "s", "lower"),
    ("trace.disk_hits", "count", "higher"),
    ("trace.misses", "count", "lower"),
    ("trace.hit_ratio", "ratio", "higher"),
    ("trace.disk_bytes", "bytes", "lower"),
    ("resilience.checkpoint_s", "s", "lower"),
    ("resilience.checkpoints", "count", "lower"),
    ("parallel.pool_s", "s", "lower"),
    ("parallel.pools", "count", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("study.self_s", "s", "lower"),
    *((f"repair.{stage}_s", "s", "lower")
      for stage in ("localize", "verify", "shrink", "rank")),
    *((f"repair.target_s.{t}", "s", "lower") for t in REPAIR_TARGETS),
    ("repair.candidates", "count", "lower"),
    ("repair.accepted_ratio", "ratio", "higher"),
    ("explore.s", "s", "lower"),
    ("explore.runs", "count", "lower"),
    ("explore.schedules", "count", "lower"),
    ("explore.steps", "count", "lower"),
    ("explore.steps_per_s", "1/s", "higher"),
    ("explore.truncated_ratio", "ratio", "lower"),
    ("explore.redundant_pruned", "count", "higher"),
    ("explore.budget_margin", "ratio", "lower"),
    ("service.ttfb_s", "s", "lower"),
    ("service.study_p50_s", "s", "lower"),
    ("service.study_p90_s", "s", "lower"),
    ("service.cells.computed", "count", "lower"),
    ("service.cells.cache_hit", "count", "higher"),
    ("service.cells.coalesced", "count", "higher"),
    ("service.cells.stale", "count", "lower"),
    ("service.admissions_rejected", "count", "lower"),
    ("fleet.respawns", "count", "lower"),
    ("fleet.redispatches", "count", "lower"),
    ("store.publishes", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("unattributed_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("tracing.overhead", "ratio", "lower"),
)


def sweep_grid(seed: int) -> list[tuple[tuple[str, ...], list[str]]]:
    """The two device tables of a sweep, inputs in a seeded order.

    The seed only permutes inputs, so every seed does the same work."""
    rng = random.Random(seed)
    undirected = list(SWEEP_UNDIRECTED)
    directed = list(SWEEP_DIRECTED)
    rng.shuffle(undirected)
    rng.shuffle(directed)
    return [(UNDIRECTED_ALGOS, undirected), (("scc",), directed)]


def repair_order(seed: int) -> list[str]:
    targets = list(REPAIR_TARGETS)
    random.Random(seed).shuffle(targets)
    return targets


def serve_fresh_cells() -> list[tuple[str, str, str]]:
    cells = [(a, i, d) for d in DEVICES for i in SERVE_FRESH_UNDIRECTED
             for a in UNDIRECTED_ALGOS]
    cells += [("scc", i, d) for d in DEVICES for i in SERVE_FRESH_DIRECTED]
    return cells

# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: what the host probe read on the quiet 2-vCPU host the reference
#: figures in REPORT.md were measured on
PROBE_REF_S = 0.035


def _probe_body() -> None:
    """Interpreter-bound work like the program's own: small dicts and
    tuples built, sorted by a key function and hashed."""
    recs = [{"id": i, "k": (i * 7919) % 1021, "t": (i, str(i))}
            for i in range(20_000)]
    recs.sort(key=lambda r: (r["k"], r["id"]))
    len({r["t"][1] for r in recs})


def _probe_worker(conn, rounds: int) -> None:
    while conn.recv():
        best = math.inf
        for _ in range(rounds):
            t0 = time.process_time()
            _probe_body()
            best = min(best, time.process_time() - t0)
        conn.send(best)


class HostProbe:
    """How slowly the host runs right now.

    Other tenants of a shared host slow the same code by up to 1.7x for
    minutes at a time, and CPU time slows as much as wall time, so the
    ledger scales each timed piece of a workload by probe readings
    taken on either side of it.  :meth:`read` runs the fastest of
    ``rounds`` runs of a fixed probe, in CPU seconds, in one process
    per CPU at once (sweep-cold and serve-fleet keep every CPU busy),
    and returns the mean over the processes.  The processes are forked
    once, when the caller is still small, so they add nothing to the
    peak memory of the process that probes; :meth:`close` ends them."""

    def __init__(self, rounds: int = 3) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        self._workers = []
        for _ in range(os.cpu_count() or 1):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_probe_worker, args=(there, rounds),
                               daemon=True)
            proc.start()
            there.close()
            self._workers.append((proc, here))

    def read(self) -> float:
        for _, conn in self._workers:
            conn.send(True)
        readings = [conn.recv() for _, conn in self._workers]
        return sum(readings) / len(readings)

    def close(self) -> None:
        for proc, conn in self._workers:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile: a value that was measured."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``
    quantile."""
    return n - max(1, math.ceil(q * n))


def p90_is_resolved(n: int) -> bool:
    """The p90 of ``n`` samples is reported as a resolved percentile
    only when at least ten samples lie beyond it."""
    return samples_beyond(n, 0.9) >= 10


# ----------------------------------------------------------------------
# Span folding: self time per layer
# ----------------------------------------------------------------------

#: span name -> ledger layer.  Spans the program already records keep
#: their names; the benchmark's wrappers (see ``tracing.py``) add the
#: rest.  ``simt.launch`` belongs to the exploration layer: it is the
#: SIMT interpreter the DPOR explorer drives.
LAYER_OF_SPAN = {
    "ledger.iteration": "unattributed",
    "study.sweep": "study",
    "study.run": "study",
    "sweep.cell": "study",
    "graphs.load": "graphs",
    "graphs.weight": "graphs",
    "perf.record": "perf.record",
    "perf.replay": "perf.replay",
    "trace.lookup": "trace",
    "trace.store": "trace",
    "resilience.checkpoint": "resilience",
    "parallel.pool": "parallel",
    "repair.target": "repair.other",
    "repair.localize": "repair.localize",
    "repair.prefilter": "repair.other",
    "repair.synthesize": "repair.other",
    "repair.verify": "repair.verify",
    "repair.shrink": "repair.shrink",
    "repair.rank": "repair.rank",
    "check.explore": "explore",
    "simt.launch": "explore",
}


def layer_of(name: str) -> str:
    return LAYER_OF_SPAN.get(name, "other")


def _proc(span: dict) -> str:
    return str(span.get("attrs", {}).get("worker", "main"))


def span_scopes(spans: list[dict]) -> list[tuple[str, int]]:
    """The scope in which each span's id is unique.

    A pool worker clears its recorder after every task, so the spans of
    two tasks on one worker reuse the same stable ids.  Spans arrive in
    finish order and a task's tree ends with its root, so a worker's
    scope advances after each of its root spans.  The benchmarked
    process never clears its recorder: all its spans share one scope.
    """
    tree: dict[str, int] = defaultdict(int)
    scopes = []
    for sp in spans:
        proc = _proc(sp)
        scopes.append((proc, tree[proc]))
        if proc != "main" and sp.get("parent") is None:
            tree[proc] += 1
    return scopes


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span (by index): its duration minus the
    durations of its direct children in the same scope, never
    negative."""
    scopes = span_scopes(spans)
    child_total: dict[tuple, float] = defaultdict(float)
    for sp, scope in zip(spans, scopes):
        if sp.get("parent") is not None:
            child_total[(scope, sp["parent"])] += sp["duration_s"] or 0.0
    return {
        i: max(0.0, (sp["duration_s"] or 0.0)
               - child_total.get((scope, sp["id"]), 0.0))
        for i, (sp, scope) in enumerate(zip(spans, scopes))
    }


def fold_layers(spans: list[dict], wall_s: float) -> dict:
    """Fold one traced iteration into wall-clock seconds per layer.

    Spans of the benchmarked process add their self time.  Spans that
    pool workers shipped back (tagged with a ``worker`` attribute) ran
    concurrently, so they are folded by lane share: a ``parallel.pool``
    span with ``jobs`` workers and self time ``T`` gives each worker
    layer its worker self time divided by ``jobs``; what is left of
    ``T`` (idle lanes, forking, pickling, merge waits) stays with the
    ``parallel`` layer.  The ``unattributed`` layer is the wall time no
    layer span covers, so the layers sum to ``wall_s``.

    Returns ``{"layers": {layer: s}, "pool": {...}}`` where ``pool``
    holds worker busy seconds and lane capacity for the busy ratio.
    """
    own = self_times(spans)
    layers: dict[str, float] = defaultdict(float)
    pools = [(i, sp) for i, sp in enumerate(spans)
             if sp["name"] == "parallel.pool" and _proc(sp) == "main"]
    worker_busy: dict[int, float] = defaultdict(float)
    worker_self: dict[int, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for i, sp in enumerate(spans):
        if _proc(sp) == "main":
            if sp["name"] not in ("ledger.iteration", "parallel.pool"):
                layers[layer_of(sp["name"])] += own[i]
            continue
        pool = _pool_containing(pools, sp)
        if pool is None:
            continue
        worker_self[pool][layer_of(sp["name"])] += own[i]
        if sp.get("parent") is None:
            worker_busy[pool] += sp["duration_s"] or 0.0
    capacity = 0.0
    for i, sp in pools:
        jobs = max(1, int(sp.get("attrs", {}).get("jobs", 1)))
        capacity += jobs * (sp["duration_s"] or 0.0)
        lanes = worker_busy[i] / jobs
        # clock skew between processes can make the lanes a hair
        # longer than the pool; never attribute more than the pool had
        scale = 1.0 if lanes <= own[i] else own[i] / lanes
        for layer, secs in worker_self[i].items():
            layers[layer] += secs / jobs * scale
        layers["parallel"] += max(0.0, own[i] - lanes)
    covered = sum(layers.values())
    layers["unattributed"] = max(0.0, wall_s - covered)
    return {"layers": dict(layers),
            "pool": {"busy_s": sum(worker_busy.values()),
                     "capacity_s": capacity}}


def _pool_containing(pools: list[tuple[int, dict]], sp: dict) -> int | None:
    start = sp.get("start_s", 0.0)
    for i, pool in pools:
        if pool["start_s"] <= start <= pool["start_s"] + pool["duration_s"]:
            return i
    return None


def span_metrics(spans: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration (zero where a layer
    did no work), plus the folded ``layers`` map for the report."""
    folded = fold_layers(spans, wall_s)
    layers = folded["layers"]
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        by_name[sp["name"]].append(i)

    def attr(i: int, key: str, default=None):
        return spans[i].get("attrs", {}).get(key, default)

    def split(layer: str, groups: dict[str, list[int]]) -> dict[str, float]:
        """Share a folded layer total out by raw self time."""
        raw = {k: sum(own[i] for i in idx) for k, idx in groups.items()}
        total = sum(raw.values())
        return {k: (layers.get(layer, 0.0) * v / total if total else 0.0)
                for k, v in raw.items()}

    m: dict[str, float] = {}
    loads = by_name["graphs.load"] + by_name["graphs.weight"]
    m["graphs.build_s"] = layers.get("graphs", 0.0)
    m["graphs.builds"] = sum(1 for i in loads if attr(i, "built"))
    record_by_algo = {a: [i for i in by_name["perf.record"]
                          if attr(i, "algorithm") == a]
                      for a in UNDIRECTED_ALGOS + ("scc",)}
    m["perf.record_s"] = layers.get("perf.record", 0.0)
    for algo, secs in split("perf.record", record_by_algo).items():
        m[f"perf.record_s.{algo}"] = secs
    m["perf.records"] = len(by_name["perf.record"])
    m["perf.replay_s"] = layers.get("perf.replay", 0.0)
    m["perf.replays"] = len(by_name["perf.replay"])
    trace_split = split("trace", {"lookup": by_name["trace.lookup"],
                                  "store": by_name["trace.store"]})
    m["trace.lookup_s"] = trace_split["lookup"]
    m["trace.store_s"] = trace_split["store"]
    results = [attr(i, "result") for i in by_name["trace.lookup"]]
    hits = sum(1 for r in results if r in ("disk", "memory"))
    m["trace.disk_hits"] = sum(1 for r in results if r == "disk")
    m["trace.misses"] = sum(1 for r in results if r == "miss")
    stores = len(by_name["trace.store"])
    m["trace.hit_ratio"] = hits / (hits + stores) if hits + stores else 0.0
    m["resilience.checkpoint_s"] = layers.get("resilience", 0.0)
    m["resilience.checkpoints"] = len(by_name["resilience.checkpoint"])
    m["parallel.pool_s"] = layers.get("parallel", 0.0)
    m["parallel.pools"] = len(by_name["parallel.pool"])
    pool = folded["pool"]
    m["parallel.worker_busy_s"] = pool["busy_s"]
    m["parallel.busy_ratio"] = (pool["busy_s"] / pool["capacity_s"]
                                if pool["capacity_s"] else 0.0)
    m["study.self_s"] = layers.get("study", 0.0)
    for stage in ("localize", "verify", "shrink", "rank"):
        m[f"repair.{stage}_s"] = layers.get(f"repair.{stage}", 0.0)
    for target in REPAIR_TARGETS:
        m[f"repair.target_s.{target}"] = sum(
            spans[i]["duration_s"] for i in by_name["repair.target"]
            if attr(i, "target") == target)
    explores = [spans[i].get("attrs", {}) for i in by_name["check.explore"]]
    m.update(explore_metrics(explores))
    m["explore.s"] = layers.get("explore", 0.0)
    m["unattributed_s"] = layers.get("unattributed", 0.0)
    return {"metrics": m, "layers": layers}


def explore_metrics(explores: list[dict]) -> dict[str, float]:
    """Counts over exploration results (``tracing._explore_attrs``)."""
    schedules = sum(e["schedules"] for e in explores)
    steps = sum(e["steps"] for e in explores)
    wall = sum(e["wall"] for e in explores)
    return {
        "explore.runs": len(explores),
        "explore.schedules": schedules,
        "explore.steps": steps,
        "explore.steps_per_s": steps / wall if wall else 0.0,
        "explore.truncated_ratio": (sum(e["truncated"] for e in explores)
                                    / schedules if schedules else 0.0),
        "explore.redundant_pruned": sum(e["redundant"] for e in explores),
        "explore.budget_margin": max(
            (e["wall"] / e["max_seconds"] for e in explores), default=0.0),
    }


def top_layer(layers: dict[str, float]) -> str:
    """The layer with the most self time, the remainder excluded."""
    named = {k: v for k, v in layers.items() if k != "unattributed"}
    return max(named, key=named.get) if named else "unattributed"


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------


def results_text(reps: int, scale: float, records: list[dict]) -> str:
    """The exact text ``Study.save_results`` writes for these records."""
    return json.dumps({"reps": reps, "scale": scale, "results": records},
                      indent=1)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_index(reference: dict) -> dict[tuple, dict]:
    """(algorithm, input, device, variant) -> reference record."""
    return {(r["algorithm"], r["input"], r["device"], r["variant"]): r
            for r in reference["results"]}


VARIANTS = ("baseline", "racefree")


def expected_sweep_records(index: dict[tuple, dict], devices, grid
                           ) -> list[dict]:
    """Reference records in the order a sweep memoizes them: per
    device, per ``(algorithms, inputs)`` table, inputs outer,
    algorithms inner, baseline before race-free."""
    out = []
    for device in devices:
        for algorithms, inputs in grid:
            for name in inputs:
                for algo in algorithms:
                    for variant in VARIANTS:
                        out.append(index[(algo, name, device, variant)])
    return out


# ----------------------------------------------------------------------
# Serve-fleet study sequence
# ----------------------------------------------------------------------


def study_sequence(seed: int, fresh: list[tuple[str, str, str]],
                   base: dict[str, str], clients: int = 2
                   ) -> list[list[dict]]:
    """Per-client closed-loop study lists, made from ``seed`` alone.

    ``fresh`` holds ``(algorithm, input, device)`` cells; each study
    asks for exactly one of them, so every study carries work no
    earlier study requested.  ``base`` maps an algorithm to an input
    whose cells are served before timing starts (the priming studies),
    and every study also names that cell, plus — when the client has
    one — a cell it already received for the same algorithm and
    device.

    Each ``(algorithm, input)`` family goes to one fixed client, so the
    work per client, and which study records a trace first, does not
    depend on the seed.  The seed fixes the order of each client's
    cells and which served companion is drawn.
    """
    rng = random.Random(seed)
    families = sorted({(algo, name) for algo, name, _ in fresh})
    owner = {fam: k % clients for k, fam in enumerate(families)}
    per_client: list[list[dict]] = [[] for _ in range(clients)]
    for c in range(clients):
        cells = sorted(cell for cell in fresh
                       if owner[(cell[0], cell[1])] == c)
        rng.shuffle(cells)
        history: dict[tuple[str, str], list[str]] = defaultdict(list)
        for algo, name, device in cells:
            inputs = [name, base[algo]]
            served = history[(algo, device)]
            if served:
                inputs.append(rng.choice(served))
            per_client[c].append({"algorithms": [algo], "inputs": inputs,
                                  "device": device,
                                  "tenant": f"client-{c}"})
            served.append(name)
    return per_client


def phase_of(studies: list[dict], phase: int, phases: int) -> list[dict]:
    """The consecutive share of ``studies`` sent in ``phase``."""
    n = len(studies)
    return studies[phase * n // phases:(phase + 1) * n // phases]


def priming_studies(base: dict[str, str], devices) -> list[dict]:
    """Untimed studies that serve every base cell once."""
    by_input: dict[str, list[str]] = defaultdict(list)
    for algo, name in base.items():
        by_input[name].append(algo)
    return [{"algorithms": sorted(algos), "inputs": [name],
             "device": device, "tenant": "primer"}
            for device in devices for name, algos in sorted(by_input.items())]


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------


def host_fingerprint(root: str) -> dict:
    """What a result set was measured on."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(), **versions,
            "commit": commit}
