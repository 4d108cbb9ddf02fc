"""Tests for saving/loading study results (the artifact's raw logs)."""

from __future__ import annotations

import doctest

import pytest

from repro import Study, Variant
from repro.errors import StudyError
from repro.graphs import generators as gen


@pytest.fixture
def populated_study():
    study = Study(reps=2)
    g = gen.random_uniform(80, 3.0, seed=4, name="persist80")
    study.run("cc", g, "titanv", Variant.BASELINE)
    study.run("cc", g, "titanv", Variant.RACE_FREE)
    return study, g


class TestPersistence:
    def test_roundtrip(self, populated_study, tmp_path):
        study, g = populated_study
        path = tmp_path / "results.json"
        study.save_results(path)

        fresh = Study(reps=2)
        assert fresh.load_results(path) == 2
        # the speedup can now be computed without re-simulation
        cell = fresh.speedup("cc", g, "titanv")
        reference = study.speedup("cc", g, "titanv")
        assert cell.speedup == reference.speedup

    def test_loaded_runs_have_no_outputs(self, populated_study, tmp_path):
        study, g = populated_study
        path = tmp_path / "results.json"
        study.save_results(path)
        fresh = Study(reps=2)
        fresh.load_results(path)
        result = fresh.run("cc", g, "titanv", Variant.BASELINE)
        assert result.last_run is None

    def test_mismatched_protocol_rejected(self, populated_study, tmp_path):
        study, _ = populated_study
        path = tmp_path / "results.json"
        study.save_results(path)
        with pytest.raises(StudyError):
            Study(reps=9).load_results(path)

    def test_unloaded_configs_still_run(self, populated_study, tmp_path):
        study, g = populated_study
        path = tmp_path / "results.json"
        study.save_results(path)
        fresh = Study(reps=2)
        fresh.load_results(path)
        # a config not in the log simulates normally
        result = fresh.run("gc", g, "titanv", Variant.BASELINE)
        assert result.last_run is not None


class TestRobustPersistence:
    def test_corrupt_file_raises_study_error(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('{"reps": 2, "scale": 1.0, "resul')  # truncated
        with pytest.raises(StudyError, match="corrupt or partial"):
            Study(reps=2).load_results(path)

    def test_undecodable_file_raises_study_error(self, populated_study,
                                                 tmp_path):
        study, _ = populated_study
        path = tmp_path / "results.json"
        study.save_results(path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] |= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(StudyError, match="corrupt or partial"):
            Study(reps=2).load_results(path)

    def test_wrong_shape_raises_study_error(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('[1, 2, 3]')
        with pytest.raises(StudyError, match="not a study results file"):
            Study(reps=2).load_results(path)

    def test_malformed_record_raises_study_error(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(
            '{"reps": 2, "scale": 1.0, "results": [{"algorithm": "cc"}]}')
        with pytest.raises(StudyError, match="malformed record"):
            Study(reps=2).load_results(path)

    def test_save_is_atomic_no_temp_left_behind(self, populated_study,
                                                tmp_path):
        study, _ = populated_study
        path = tmp_path / "results.json"
        study.save_results(path)
        study.save_results(path)  # overwrite goes through a fresh temp
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]

    def test_save_failure_leaves_old_file_intact(self, populated_study,
                                                 tmp_path, monkeypatch):
        import os

        study, _ = populated_study
        path = tmp_path / "results.json"
        study.save_results(path)
        before = path.read_text()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            study.save_results(path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["results.json"]


class TestMemoKeyIntegrity:
    def test_name_clash_with_different_content_rejected(self):
        study = Study(reps=1)
        g1 = gen.random_uniform(40, 3.0, seed=1, name="clash")
        g2 = gen.random_uniform(40, 3.0, seed=2, name="clash")
        study.run("cc", g1, "titanv", Variant.BASELINE)
        with pytest.raises(StudyError, match="already used"):
            study.run("cc", g2, "titanv", Variant.BASELINE)

    def test_same_graph_reused_is_fine(self):
        study = Study(reps=1)
        g = gen.random_uniform(40, 3.0, seed=1, name="samename")
        a = study.run("cc", g, "titanv", Variant.BASELINE)
        b = study.run("cc", g, "titanv", Variant.BASELINE)
        assert a is b

    def test_graph_shadowing_suite_input_rejected(self):
        study = Study(reps=1)
        study.run("cc", "internet", "titanv", Variant.BASELINE)
        fake = gen.random_uniform(40, 3.0, seed=9, name="internet")
        with pytest.raises(StudyError, match="already used"):
            study.run("cc", fake, "titanv", Variant.BASELINE)

    def test_every_rep_validated(self, monkeypatch):
        # corrupt only the FIRST repetition: with per-rep validation the
        # study must notice even though the last rep is clean
        import repro.core.study as study_mod

        real = study_mod.run_algorithm
        calls = {"n": 0}

        def sabotage_first_rep(algo, graph, spec, variant, seed=0,
                               faults=None, **kwargs):
            run = real(algo, graph, spec, variant, seed=seed,
                       faults=faults, **kwargs)
            calls["n"] += 1
            if calls["n"] == 1:
                # give every vertex its own label: any edge now joins
                # two "different" components, which cannot validate
                labels = run.output["labels"]
                labels[:] = range(len(labels))
            return run

        monkeypatch.setattr(study_mod, "run_algorithm",
                            sabotage_first_rep)
        study = Study(reps=3, validate=True)
        with pytest.raises(StudyError, match=r"FAIL\(validation\)"):
            study.run("cc", "internet", "titanv", Variant.BASELINE)
        assert calls["n"] == 1  # caught immediately, not at the end


class TestDoctests:
    def test_bitops_doctests(self):
        import repro.utils.bitops as bitops

        failures = doctest.testmod(bitops).failed
        assert failures == 0
