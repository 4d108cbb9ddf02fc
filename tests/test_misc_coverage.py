"""Additional coverage for corners of the public surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    DataRaceError,
    DeviceError,
    GraphError,
    KernelError,
    ReproError,
    StudyError,
    ValidationError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        GraphError, DeviceError, KernelError, DataRaceError,
        ValidationError, StudyError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestBlasThreads:
    """Importing repro pins OpenBLAS to one thread unless the caller
    chose a count: nothing calls BLAS, and its idle helper threads spin
    while the main thread imports."""

    @staticmethod
    def _after_import(preset: str | None) -> str:
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os, repro, numpy; "
                "print(os.environ['OPENBLAS_NUM_THREADS'])")
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              check=True).stdout.strip()

    def test_pinned_to_one_thread(self):
        assert self._after_import(None) == "1"

    def test_a_preset_value_survives(self):
        assert self._after_import("2") == "2"


class TestScaleBits:
    def test_scale_exponents(self):
        from repro.graphs.suite import _scale_bits

        assert _scale_bits(1.0) == 0
        assert _scale_bits(2.0) == 1
        assert _scale_bits(4.0) == 2
        assert _scale_bits(0.5) == -1
        assert _scale_bits(0.01) == -4  # floor


class TestMemoryFill:
    def test_fill_int2(self):
        from repro.gpu.accesses import DType
        from repro.gpu.memory import GlobalMemory, pack_int2

        mem = GlobalMemory()
        h = mem.alloc("pm", 3, DType.INT2)
        mem.fill(h, pack_int2(-1, 7))
        for i in range(3):
            assert mem.element_read(h, i) == pack_int2(-1, 7)

    def test_fill_negative_i32(self):
        from repro.gpu.accesses import DType
        from repro.gpu.memory import GlobalMemory

        mem = GlobalMemory()
        h = mem.alloc("a", 4, DType.I32)
        mem.fill(h, -1)
        assert np.array_equal(mem.download(h), [-1, -1, -1, -1])


class TestSchedulerReset:
    def test_round_robin_resets_between_launches(self):
        from repro.gpu.interleave import RoundRobinScheduler

        sched = RoundRobinScheduler()
        assert sched.choose([0, 1]) == 0
        assert sched.choose([0, 1]) == 1
        sched.reset()
        assert sched.choose([0, 1]) == 0

    def test_adversarial_reset_clears_last(self):
        from repro.gpu.interleave import AdversarialScheduler

        sched = AdversarialScheduler(0, stickiness=0.0)
        first = sched.choose([0, 1, 2])
        second = sched.choose([0, 1, 2])
        assert second != first  # zero stickiness: always switch
        sched.reset()
        assert sched.choose([first]) == first


class TestRaceReportOrdering:
    def test_ordered_helper(self):
        from repro.gpu.accesses import AccessKind, MemSpan
        from repro.gpu.racecheck import _conflict, _ordered
        from repro.gpu.simt import AccessEvent

        def ev(tid, launch=0, block=0, epoch=0, write=True):
            return AccessEvent(step=0, launch=launch, tid=tid,
                               block=block, epoch=epoch,
                               span=MemSpan("a", 0, 4), is_read=not write,
                               is_write=write,
                               access=AccessKind.PLAIN, value=0)

        assert _ordered(ev(0, launch=0), ev(1, launch=1))
        assert _ordered(ev(0, epoch=0), ev(1, epoch=1))
        assert not _ordered(ev(0, block=0, epoch=0),
                            ev(1, block=1, epoch=1))
        assert _conflict(ev(0), ev(1))
        assert not _conflict(ev(0), ev(0))


class TestVariantEnum:
    def test_values(self):
        from repro.core.variants import Variant

        assert Variant.BASELINE.value == "baseline"
        assert Variant.RACE_FREE.value == "racefree"

    def test_double_registration_rejected(self):
        from repro.core.variants import (
            AlgorithmInfo,
            get_algorithm,
            register_algorithm,
        )

        info = get_algorithm("cc")
        clone = AlgorithmInfo(
            key="cc", full_name="dup", directed=False, needs_weights=False,
            has_races=True, perf_runner=info.perf_runner,
            module=info.module)
        with pytest.raises(StudyError):
            register_algorithm(clone)


class TestAccessKindProps:
    def test_is_atomic(self):
        from repro.gpu.accesses import AccessKind

        assert AccessKind.ATOMIC.is_atomic
        assert not AccessKind.PLAIN.is_atomic
        assert not AccessKind.VOLATILE.is_atomic

    def test_dtype_widths(self):
        from repro.gpu.accesses import DType

        assert DType.U8.width_bytes == 1
        assert DType.I32.width_bytes == 4
        assert DType.INT2.width_bytes == 8
        assert DType.INT2.words() == 2
        assert DType.I32.words() == 1


class TestStudyInputHandling:
    def test_csr_graph_passed_directly(self):
        from repro import Study, Variant
        from repro.graphs import generators as gen

        g = gen.random_uniform(60, 3.0, seed=2, name="direct60")
        result = Study(reps=1).run("cc", g, "titanv", Variant.BASELINE)
        assert result.input_name == "direct60"

    def test_validation_catches_wrong_results(self, monkeypatch):
        """Wire a corrupted runner through the study's validate path."""
        from repro import Study, Variant
        from repro.core import variants as variants_mod
        from repro.graphs import generators as gen

        real = variants_mod.get_algorithm("cc")

        def corrupted(graph, recorder, **options):
            out = real.perf_runner(graph, recorder, **options)
            out["labels"] = np.zeros_like(out["labels"])
            return out

        import dataclasses

        fake = dataclasses.replace(real, perf_runner=corrupted)
        monkeypatch.setattr(variants_mod, "_REGISTRY",
                            {**variants_mod._REGISTRY, "cc": fake})
        g = gen.random_uniform(40, 2.0, seed=3, name="corrupt40")
        with pytest.raises(StudyError, match=r"FAIL\(validation\)"):
            Study(reps=1, validate=True).run("cc", g, "titanv",
                                             Variant.BASELINE)
