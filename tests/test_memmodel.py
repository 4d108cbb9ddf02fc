"""The memory-model zoo: parsing, litmus goldens, and the default
model's bit-identity contract.

Three layers of protection:

* **Golden litmus tables** — the observed outcome sets per (test,
  model) cell are hard-coded here, independently of the allowed-set
  computation in :mod:`repro.memmodel.litmus` (both the harness and
  the goldens would have to drift together to hide a semantics bug).
* **Determinism** — the same litmus cell explored twice yields the
  same outcomes in the same order.
* **Bit-identity** — the default model is the paper's relaxed GPU
  semantics with eager visibility; executions under it must be
  byte-identical to an executor that never heard of memory models,
  on both the scalar interpreter and the batched tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import cc, gc, mis
from repro.core.transform import AccessPlan, AccessSite
from repro.core.variants import Variant
from repro.errors import ReproError
from repro.gpu.accesses import AccessKind, MemoryOrder
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor
from repro.memmodel import (
    DEFAULT_MODEL,
    get_model,
    model_keys,
    resolve_model,
)
from repro.memmodel.litmus import CORPUS, run_corpus, run_litmus
from tests.test_explore_digests import LITMUS_MODELS, assert_pinned, capture

#: every exploration the litmus golden fixture ran, in corpus order
_EXPLORATIONS: list[dict] = []

# ----------------------------------------------------------------------
# model registry and parsing
# ----------------------------------------------------------------------


class TestRegistry:
    def test_model_keys(self):
        keys = model_keys()
        for expected in ("sc", "tso", "relaxed_gpu", "ptx"):
            assert expected in keys

    def test_unknown_spec(self):
        with pytest.raises(ReproError):
            get_model("totally-bogus")

    def test_parameterized_tso(self):
        m = get_model("tso:1")
        assert m.buffers_stores
        assert "tso" in m.key

    def test_invalid_tso_capacity(self):
        with pytest.raises(ReproError):
            get_model("tso:0")

    def test_resolve_passthrough(self):
        m = get_model("sc")
        assert resolve_model(m) is m

    def test_default_is_relaxed_eager(self):
        assert not DEFAULT_MODEL.buffers_stores
        assert DEFAULT_MODEL.order_floor is MemoryOrder.RELAXED


class TestApplyToPlan:
    PLAN = AccessPlan("t", (
        AccessSite("t.shared.vol", AccessKind.VOLATILE, is_store=True),
        AccessSite("t.shared.atomic", AccessKind.ATOMIC, is_store=True),
        AccessSite("t.private", AccessKind.PLAIN, shared=False),
    ))

    def test_relaxed_floor_is_identity(self):
        assert DEFAULT_MODEL.apply_to_plan(self.PLAN) is self.PLAN
        assert get_model("ptx").apply_to_plan(self.PLAN) is self.PLAN

    def test_strong_floor_lifts_all_shared_sites(self):
        # the race-removal transform converts shared volatile sites to
        # atomics, so a stronger model must lift them too — not just
        # the sites that are atomic in the baseline plan
        lifted = get_model("ptx:acq_rel").apply_to_plan(self.PLAN)
        assert lifted.site("t.shared.vol").order is MemoryOrder.ACQ_REL
        assert lifted.site("t.shared.atomic").order is MemoryOrder.ACQ_REL
        assert lifted.site("t.private").order is MemoryOrder.RELAXED

    def test_sc_floor(self):
        lifted = get_model("sc").apply_to_plan(self.PLAN)
        assert lifted.site("t.shared.vol").order is MemoryOrder.SEQ_CST


# ----------------------------------------------------------------------
# golden litmus tables
# ----------------------------------------------------------------------

_MP_SAFE = {(0, 0), (0, 1), (1, 1)}
_MP_WEAK = _MP_SAFE | {(1, 0)}
_SB_SC = {(0, 1), (1, 0), (1, 1)}
_SB_WEAK = _SB_SC | {(0, 0)}
_LB = {(0, 0), (0, 1), (1, 0)}
_CORR_CACHED = {(0, 0), (1, 1)}
_CORR_UNCACHED = {(0, 0), (0, 1), (1, 1)}
_IRIW = {(a, b, c, d)
         for a in (0, 1) for b in (0, 1)
         for c in (0, 1) for d in (0, 1)} - {(1, 0, 1, 0)}

#: (test name, model key) -> exact outcome set a complete exploration
#: must observe.  Frozen from a verified run; independent of the
#: allowed-set derivation inside the litmus module.
GOLDEN = {
    ("MP", "sc"): _MP_SAFE,
    ("MP", "tso"): _MP_SAFE,
    ("MP", "relaxed_gpu"): _MP_WEAK,
    ("MP", "ptx"): _MP_WEAK,
    ("MP+rel+acq", "sc"): _MP_SAFE,
    ("MP+rel+acq", "tso"): _MP_SAFE,
    ("MP+rel+acq", "relaxed_gpu"): _MP_SAFE,
    ("MP+rel+acq", "ptx"): _MP_SAFE,
    ("MP+rlx", "sc"): _MP_SAFE,
    ("MP+rlx", "tso"): _MP_SAFE,
    ("MP+rlx", "relaxed_gpu"): _MP_WEAK,
    ("MP+rlx", "ptx"): _MP_WEAK,
    ("SB", "sc"): _SB_SC,
    ("SB", "tso"): _SB_WEAK,
    ("SB", "relaxed_gpu"): _SB_WEAK,
    ("SB", "ptx"): _SB_WEAK,
    ("SB+fences", "sc"): _SB_SC,
    ("SB+fences", "tso"): _SB_SC,
    ("SB+fences", "relaxed_gpu"): _SB_SC,
    ("SB+fences", "ptx"): _SB_SC,
    ("LB", "sc"): _LB,
    ("LB", "tso"): _LB,
    ("LB", "relaxed_gpu"): _LB,
    ("LB", "ptx"): _LB,
    ("CoRR", "sc"): _CORR_UNCACHED,
    ("CoRR", "tso"): _CORR_UNCACHED,
    ("CoRR", "relaxed_gpu"): _CORR_CACHED,
    ("CoRR", "ptx"): _CORR_CACHED,
    ("IRIW", "sc"): _IRIW,
    ("IRIW", "tso"): _IRIW,
    ("IRIW", "relaxed_gpu"): _IRIW,
    ("IRIW", "ptx"): _IRIW,
    ("MP+cta/same", "sc"): _MP_SAFE,
    ("MP+cta/same", "tso"): _MP_SAFE,
    ("MP+cta/same", "relaxed_gpu"): _MP_SAFE,
    ("MP+cta/same", "ptx"): _MP_SAFE,
    ("MP+cta/cross", "sc"): _MP_SAFE,
    ("MP+cta/cross", "tso"): _MP_SAFE,
    ("MP+cta/cross", "relaxed_gpu"): _MP_SAFE,
    ("MP+cta/cross", "ptx"): _MP_WEAK,
}


class TestLitmusGoldens:
    @pytest.fixture(scope="class")
    def corpus_results(self):
        with capture() as explorations:
            results = run_corpus(list(LITMUS_MODELS))
        _EXPLORATIONS[:] = explorations
        return results

    def test_explorations_match_pins(self, corpus_results):
        assert_pinned("litmus", _EXPLORATIONS)

    def test_corpus_covers_golden_cells(self, corpus_results):
        cells = {(r.test, r.model) for r in corpus_results}
        assert cells == set(GOLDEN)

    def test_every_cell_complete_and_ok(self, corpus_results):
        for r in corpus_results:
            assert r.complete, f"{r.test}/{r.model} truncated"
            assert r.ok, (f"{r.test}/{r.model}: "
                          f"forbidden={sorted(r.forbidden_observed)} "
                          f"missing={sorted(r.missing)}")

    def test_observed_matches_golden(self, corpus_results):
        for r in corpus_results:
            want = GOLDEN[(r.test, r.model)]
            assert set(r.observed) == want, (
                f"{r.test}/{r.model}: observed "
                f"{sorted(set(r.observed))}, golden {sorted(want)}")

    def test_parameterized_models_run_clean(self):
        results = run_corpus(models=["ptx:acq_rel", "tso:1"],
                             tests=["MP", "SB", "CoRR"])
        for r in results:
            assert r.complete and r.ok


class TestDeterminism:
    def test_same_cell_twice_identical(self):
        test = next(t for t in CORPUS if t.name == "SB")
        model = get_model("tso")
        a = run_litmus(test, model)
        b = run_litmus(test, model)
        assert a.observed == b.observed
        assert a.schedules == b.schedules


# ----------------------------------------------------------------------
# default-model bit-identity (interpreter and batched tiers)
# ----------------------------------------------------------------------

_RUNNERS = {
    "cc": lambda g, v, ex: cc.run_simt(g, v, executor=ex),
    "gc": lambda g, v, ex: gc.run_simt(g, v, executor=ex),
    "mis": lambda g, v, ex: mis.run_simt(g, v, executor=ex),
}


class TestDefaultBitIdentity:
    """An executor given the explicit default model must be
    indistinguishable from one constructed with no model at all."""

    @pytest.mark.parametrize("algo", sorted(_RUNNERS))
    @pytest.mark.parametrize("variant", list(Variant))
    def test_interp_tier(self, algo, variant, tiny_graph):
        ex_plain = SimtExecutor(GlobalMemory(), record_events=True)
        ex_model = SimtExecutor(GlobalMemory(), record_events=True,
                                memory_model="relaxed_gpu:eager")
        out_p, _ = _RUNNERS[algo](tiny_graph, variant, ex_plain)
        out_m, _ = _RUNNERS[algo](tiny_graph, variant, ex_model)
        assert np.array_equal(np.asarray(out_p), np.asarray(out_m))
        assert ex_plain.events == ex_model.events

    @pytest.mark.parametrize("algo", sorted(_RUNNERS))
    def test_batched_tier(self, algo, tiny_graph):
        ex_plain = SimtExecutor(GlobalMemory(), batch=True,
                                record_events=True)
        ex_model = SimtExecutor(GlobalMemory(), batch=True,
                                record_events=True,
                                memory_model="relaxed_gpu:eager")
        out_p, _ = _RUNNERS[algo](tiny_graph, Variant.RACE_FREE, ex_plain)
        out_m, _ = _RUNNERS[algo](tiny_graph, Variant.RACE_FREE, ex_model)
        assert np.array_equal(np.asarray(out_p), np.asarray(out_m))
        assert ex_plain.events == ex_model.events
        assert ex_model.batch_stats.batched_launches > 0


# ----------------------------------------------------------------------
# GC multi-word bitsets (the lifted 32-color cap)
# ----------------------------------------------------------------------


class TestGCWideBitsets:
    def test_posscol_words(self):
        assert gc.posscol_words(0) == 1
        assert gc.posscol_words(30) == 1
        assert gc.posscol_words(31) == 1
        assert gc.posscol_words(32) == 2
        assert gc.posscol_words(63) == 2
        assert gc.posscol_words(64) == 3

    def test_high_degree_star_colors(self):
        from repro.algorithms.verify import check_coloring
        from repro.graphs.csr import CSRGraph

        hub_deg = 40  # needs a 2-word possible-color bitset
        edges = [(0, i) for i in range(1, hub_deg + 1)]
        graph = CSRGraph.from_edges(hub_deg + 1, edges, directed=False,
                                    symmetrize=True, name="star-40")
        colors, _ = gc.run_simt(graph, Variant.RACE_FREE)
        check_coloring(graph, colors)
        # a star is 2-colorable and JP largest-degree-first finds it
        assert int(colors.max()) <= 1
