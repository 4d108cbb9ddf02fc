"""Tests for SCC's trim-1 preprocessing and the inputs CLI command."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import scc, verify
from repro.core.variants import Variant, get_algorithm
from repro.gpu.device import get_device
from repro.gpu.timing import TimingModel
from repro.graphs import generators as gen
from repro.perf.engine import Recorder, algorithm_plan


def run_scc(graph, trim: bool, variant=Variant.BASELINE):
    device = get_device("titanv")
    algo = get_algorithm("scc")
    recorder = Recorder(algorithm_plan(algo), variant, device)
    out = scc.run_perf(graph, recorder, trim=trim)
    return out, recorder.stats, TimingModel(device).estimate_ms(recorder.stats)


class TestTrim:
    @pytest.mark.parametrize("trim", [False, True])
    def test_results_identical(self, tiny_directed, trim):
        out, _, _ = run_scc(tiny_directed, trim)
        verify.check_scc(tiny_directed, out["labels"])

    def test_partitions_agree(self, tiny_directed):
        a, _, _ = run_scc(tiny_directed, trim=False)
        b, _, _ = run_scc(tiny_directed, trim=True)
        # same partition (labels may differ only by renaming)
        la, lb = a["labels"], b["labels"]
        mapping = {}
        for x, y in zip(la.tolist(), lb.tolist()):
            assert mapping.setdefault(x, y) == y

    def test_trim_reduces_traffic_on_powerlaw(self):
        """Power-law graphs have many zero-in-degree leaves; trimming
        them cuts the propagation workload."""
        g = gen.directed_powerlaw(800, 6.0, seed=4)
        _, stats_plain, _ = run_scc(g, trim=False)
        _, stats_trim, _ = run_scc(g, trim=True)
        assert stats_trim.plain_loads < stats_plain.plain_loads

    def test_trim_on_dag_settles_everything(self):
        edges = np.array([(0, 1), (1, 2), (0, 2), (2, 3)])
        from repro.graphs.csr import CSRGraph

        g = CSRGraph.from_edges(4, edges, directed=True)
        out, stats, _ = run_scc(g, trim=True)
        verify.check_scc(g, out["labels"])

    def test_trim_noop_on_single_cycle(self, directed_cycle):
        """A cycle has no trivial vertices: trim must retire nothing."""
        out, _, _ = run_scc(directed_cycle, trim=True)
        assert len(set(out["labels"].tolist())) == 1


class TestInputsCommand:
    def test_undirected_table(self, capsys):
        from repro.cli import main

        assert main(["inputs"]) == 0
        out = capsys.readouterr().out
        assert "Table II analog" in out
        assert "soc-LiveJournal1" in out
        assert "4847571" in out  # the paper's vertex count appears

    def test_directed_table(self, capsys):
        from repro.cli import main

        assert main(["inputs", "--directed"]) == 0
        out = capsys.readouterr().out
        assert "Table III analog" in out
        assert "klein-bottle" in out
