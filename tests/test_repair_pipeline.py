"""End-to-end tests of the repair pipeline and its CLI surface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.repair import list_targets, repair
from tests.test_explore_digests import REPAIR_CALLS, assert_pinned, capture

#: ``repro repair <target> --budget smoke --json PATH`` of every target,
#: as the code before the verification shortcuts (shrink trials that
#: stop at their first failure, one verdict per verified program)
#: wrote them
PINNED_REPAIRS = Path(__file__).parent / "data" / "repair"

#: every exploration each fixture's repair ran, by target
_EXPLORATIONS: dict[str, list[dict]] = {}


def _pinned_repair(target: str):
    """``repair(target)`` at the smoke budget, recording its
    explorations for the pinned-digest check."""
    with capture() as explorations:
        report = repair(target, budget="smoke", **REPAIR_CALLS[target])
    _EXPLORATIONS[target] = explorations
    return report


class TestTwophasePipeline:
    @pytest.fixture(scope="class")
    def report(self):
        return _pinned_repair("twophase")

    def test_explorations_match_pins(self, report):
        assert_pinned("repair/twophase", _EXPLORATIONS["twophase"])

    def test_ok_and_barrier_wins(self, report):
        assert report.ok
        assert report.top_fix is not None
        top = report.top_fix.fixset
        assert top.barriers() == frozenset({"twophase.phase"})
        assert top.kinds() == {}

    def test_rejections_are_explained(self, report):
        rejected = [c for c in report.candidates if not c.accepted]
        assert rejected, "the racy candidates must have been tried"
        assert all(c.verdict != "accepted" for c in rejected)

    def test_render_mentions_verdicts(self, report):
        text = report.render()
        assert "[ACCEPT]" in text
        assert "barrier@twophase.phase (accepted, 1 schedules, complete)" in text

    def test_json_round_trip(self, report):
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["target"] == "twophase"
        assert blob["accepted"] >= 1
        assert blob["ranked"][0]["fixset"]["fixes"]
        assert {c["stop_reason"] for c in blob["candidates"]} == {"complete"}


class TestCcPipeline:
    @pytest.fixture(scope="class")
    def report(self):
        return _pinned_repair("cc")

    def test_explorations_match_pins(self, report):
        assert_pinned("repair/cc", _EXPLORATIONS["cc"])

    def test_obligations_found(self, report):
        assert report.obligations
        ids = {ob.obligation_id for ob in report.obligations}
        assert any(id_.startswith("cc_label:") for id_ in ids)

    def test_every_accepted_fix_is_verified(self, report):
        accepted = [c for c in report.candidates if c.accepted]
        assert accepted
        for verdict in accepted:
            assert verdict.race_free
            assert verdict.completes
            assert verdict.invariant_ok
            assert verdict.output_equivalent
            assert verdict.schedules_explored >= 1

    def test_top_fix_matches_racefree_within_noise(self, report):
        # the issue's acceptance bar: the winning fix prices within
        # noise tolerance of the hand-written race-free variant on at
        # least one device
        top = report.top_fix
        assert top is not None
        assert any(abs(ratio - 1.0) <= 0.05
                   for ratio in top.vs_racefree.values())

    def test_ranked_by_geomean(self, report):
        geomeans = [r.geomean_ms for r in report.ranked]
        assert geomeans == sorted(geomeans)

    def test_seq_cst_prices_worse_than_relaxed(self, report):
        relaxed = next((r for r in report.ranked
                        if r.fixset.label == "atomic-suspects"), None)
        seq_cst = next((r for r in report.ranked
                        if "seqcst" in r.fixset.label), None)
        if relaxed is None or seq_cst is None:
            pytest.skip("both orderings must survive shrink to compare")
        assert seq_cst.geomean_ms > relaxed.geomean_ms


class TestApspSharedPipeline:
    """The staged-tile APSP kernel: a *barrier* race, where atomics
    are the wrong tool and must be rejected on output, not vibes."""

    @pytest.fixture(scope="class")
    def report(self):
        return _pinned_repair("apsp_shared")

    def test_explorations_match_pins(self, report):
        assert_pinned("repair/apsp_shared", _EXPLORATIONS["apsp_shared"])

    def test_ok_and_barrier_is_the_only_fix(self, report):
        assert report.ok
        top = report.top_fix
        assert top is not None
        assert top.fixset.barriers() == frozenset({"apsp.sync"})
        assert top.fixset.kinds() == {}

    def test_atomic_candidates_rejected_on_output(self, report):
        atomics = [c for c in report.candidates
                   if c.fixset.kinds() and not c.fixset.barriers()]
        assert atomics, "atomic candidates must have been tried"
        assert all(not c.accepted for c in atomics)

    def test_obligations_name_the_tile(self, report):
        assert report.obligations
        sites = {site for ob in report.obligations
                 for site in ob.sites}
        assert any(site.startswith("apsp.tile") for site in sites)


class TestMisPackedPipeline:
    """The packed single-byte MIS kernel as a repair target."""

    @pytest.fixture(scope="class")
    def report(self):
        return _pinned_repair("mis_packed")

    def test_explorations_match_pins(self, report):
        assert_pinned("repair/mis_packed", _EXPLORATIONS["mis_packed"])

    def test_ok_with_accepted_atomic_fix(self, report):
        assert report.ok
        assert report.obligations
        accepted = [c for c in report.candidates if c.accepted]
        assert accepted
        assert report.top_fix is not None
        assert report.top_fix.fixset.kinds(), \
            "the packed kernel's fix promotes access kinds"

    def test_accepted_fixes_verified_end_to_end(self, report):
        for verdict in (c for c in report.candidates if c.accepted):
            assert verdict.race_free
            assert verdict.completes
            assert verdict.invariant_ok
            assert verdict.output_equivalent


class TestRepairCli:
    def test_repair_twophase_text(self, capsys):
        assert main(["repair", "twophase", "--budget", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "barrier@twophase.phase" in out

    def test_repair_json_output(self, tmp_path, capsys):
        path = tmp_path / "repair.json"
        assert main(["repair", "twophase", "--budget", "smoke",
                     "--json", str(path)]) == 0
        blob = json.loads(path.read_text())
        assert blob["ok"] is True
        assert blob["reports"][0]["target"] == "twophase"

    def test_unknown_target_exits_2(self, capsys):
        assert main(["repair", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--max-candidates", "-1"], "max_candidates must be >= 1, got -1"),
        (["--max-candidates", "0"], "max_candidates must be >= 1, got 0"),
        (["--seeds", "-2"], "--seeds must be >= 0, got -2"),
    ])
    def test_bad_counts_exit_2_before_localizing(self, monkeypatch, capsys,
                                                 argv, message):
        """A negative ``--max-candidates`` used to slice the candidate
        list from its end, and a negative ``--seeds`` ran no seed."""
        from repro.repair import pipeline

        def localize(*args, **kwargs):
            raise AssertionError("localized despite a bad count")

        monkeypatch.setattr(pipeline, "localize", localize)
        assert main(["repair", "twophase", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestPinnedRepairJson:
    def test_every_target_is_pinned(self):
        assert sorted(p.stem for p in PINNED_REPAIRS.glob("*.json")) == \
            sorted(list_targets())

    @pytest.mark.parametrize("target", sorted(list_targets()))
    def test_json_is_byte_identical(self, target, tmp_path, capsys):
        path = tmp_path / f"{target}.json"
        assert main(["repair", target, "--budget", "smoke",
                     "--json", str(path)]) == 0
        assert path.read_bytes() == (
            PINNED_REPAIRS / f"{target}.json").read_bytes()


class TestCheckJsonCli:
    def test_check_json_reports_races(self, tmp_path):
        path = tmp_path / "check.json"
        assert main(["check", "lost_update", "--variant", "baseline",
                     "--budget", "smoke", "--json", str(path)]) == 0
        blob = json.loads(path.read_text())
        report = blob["reports"][0]
        assert report["ok"] is False
        assert report["expected_racy"] is True
        assert report["races"]
        race = report["races"][0]
        assert race["site_id"]
        assert race["accesses"]
        # lost_update's space outgrows the smoke budget's 60 schedules
        assert report["stop_reason"] == "schedule_cap"

    def test_check_json_clean_pattern(self, tmp_path):
        path = tmp_path / "check.json"
        assert main(["check", "lost_update", "--variant", "racefree",
                     "--budget", "smoke", "--json", str(path)]) == 0
        blob = json.loads(path.read_text())
        assert blob["reports"][0]["races"] == []
