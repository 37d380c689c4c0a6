"""Chaos campaigns: plan generation, the invariant classifier, a small
seeded campaign over a paper program, and the ``repro chaos`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.resilience.chaos import (
    DEFAULT_PROGRAMS,
    PLAN_SITES,
    TYPED_ERROR_KINDS,
    CaseResult,
    ChaosReport,
    _analyze_twice,
    _classify,
    _request,
    build_plan,
    run_chaos,
)
from repro.resilience.faults import FaultPlan, FaultSpec, armed
from repro.service.pool import WorkerPool
from repro.service.server import LayoutService
from repro.tool.cli import main


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        assert build_plan(42) == build_plan(42)

    def test_different_seeds_diverge_somewhere(self):
        plans = [build_plan(s).to_dict() for s in range(20)]
        assert len({json.dumps(p, sort_keys=True) for p in plans}) > 1

    def test_plans_only_target_known_in_process_sites(self):
        for seed in range(50):
            for spec in build_plan(seed).specs:
                assert spec.site in PLAN_SITES
                if spec.mode == "corrupt":
                    assert spec.site in ("cache.load", "cache.store")

    def test_plans_replay_through_json(self):
        plan = build_plan(7)
        text = json.dumps(plan.to_dict())
        assert FaultPlan.from_dict(json.loads(text)) == plan


REFERENCE = {
    "ok": True,
    "predicted_total_us": 1000.0,
    "layouts": {"0": "(block, *)"},
}


class TestClassifier:
    def test_matching_result_is_ok(self):
        response = dict(REFERENCE, degraded=False)
        assert _classify(response, REFERENCE) == ("ok", "")

    def test_labeled_degraded_with_layouts_is_degraded(self):
        response = dict(REFERENCE, degraded=True,
                        predicted_total_us=2000.0)
        outcome, _ = _classify(response, REFERENCE)
        assert outcome == "degraded"

    def test_degraded_without_layouts_is_violation(self):
        response = {"ok": True, "degraded": True, "layouts": {}}
        outcome, detail = _classify(response, REFERENCE)
        assert outcome == "violation"
        assert "layouts" in detail

    def test_unlabeled_wrong_cost_is_violation(self):
        response = dict(REFERENCE, degraded=False,
                        predicted_total_us=999.0)
        outcome, detail = _classify(response, REFERENCE)
        assert outcome == "violation"
        assert "wrong answer" in detail

    def test_unlabeled_wrong_layouts_is_violation(self):
        response = dict(REFERENCE, degraded=False,
                        layouts={"0": "(*, block)"})
        outcome, _ = _classify(response, REFERENCE)
        assert outcome == "violation"

    def test_every_typed_error_kind_is_clean(self):
        for kind in TYPED_ERROR_KINDS:
            response = {"ok": False, "error": "x", "error_kind": kind}
            assert _classify(response, REFERENCE) == ("typed-error", kind)

    def test_untyped_error_is_violation(self):
        # no error type carries "worker-pool" or "circuit-open": a reply
        # with either came from outside the taxonomy
        for kind in ("internal", "worker-pool", "circuit-open"):
            response = {"ok": False, "error": "boom", "error_kind": kind}
            outcome, detail = _classify(response, REFERENCE)
            assert outcome == "violation"
            assert "untyped" in detail

    def test_missing_response_is_violation(self):
        outcome, _ = _classify(None, REFERENCE)
        assert outcome == "violation"


class TestCampaign:
    def test_small_seeded_campaign_holds_the_invariant(self, tmp_path):
        report = run_chaos(
            cases=8, seed=123, programs=("erlebacher",),
            case_timeout_s=120.0, procs=4,
            artifact_dir=str(tmp_path / "artifacts"),
        )
        assert len(report.cases) == 8
        assert report.ok, report.summary()
        # the classifier saw every case land in an allowed bucket
        assert (report.count("ok") + report.count("degraded")
                + report.count("typed-error")
                + report.count("overload-shed")) == 8
        # no violations => no artifacts written
        assert not (tmp_path / "artifacts").exists()
        summary = report.summary()
        assert "invariant held" in summary
        assert report.to_dict()["total"] == 8

    def test_second_pass_reads_the_disk_under_fire(self, tmp_path):
        """``store`` fills the memory LRU too, so without dropping it the
        second pass never hands ``corrupt_point("cache.load")`` a blob."""
        request = _request("erlebacher", 4)
        reference = _analyze_twice(str(tmp_path / "ref"), request)
        assert [t["stage"] for t in reference["stage_timings"]] == ["answer"]
        assert reference["cache_hits"] == 1
        plan = FaultPlan(seed=1, specs=[FaultSpec("cache.load", "corrupt")])
        with armed(plan) as injector:
            response = _analyze_twice(str(tmp_path / "hit"), request)
            assert injector.fired_count() == 1  # the one entry there is
        assert _classify(response, reference) == ("ok", "")
        assert response["cache_hits"] == 0
        moved = sorted(
            p.parent.name for p in (tmp_path / "hit").rglob("*.quarantined")
        )
        assert moved == ["answer"]

    def test_a_cold_pass_meets_one_load_and_one_store(self, tmp_path):
        plan = FaultPlan(seed=1, specs=[
            FaultSpec("cache.*", "delay", delay_s=0.0),
        ])
        with LayoutService(cache_dir=str(tmp_path / "cold"),
                           pool=WorkerPool(kind="serial")) as service:
            with armed(plan) as injector:
                assert service.handle(_request("erlebacher", 4))["ok"]
        assert [site for site, _mode, _detail in injector.log] == \
            ["cache.load", "cache.store"]

    def test_campaign_respects_wall_clock_budget(self):
        report = run_chaos(
            cases=1000, seed=5, programs=("erlebacher",), budget_s=0.0,
        )
        assert report.cases == []

    def test_violating_case_writes_replayable_artifact(self, tmp_path):
        artifact_dir = tmp_path / "artifacts"
        report = ChaosReport(seed=1)
        # exercise the artifact path without needing a real violation
        case = CaseResult(
            index=3, seed=4, program="adi", plan=build_plan(4),
            outcome="violation", detail="synthetic",
        )
        assert case.violated
        report.cases.append(case)
        assert not report.ok
        assert "synthetic" in report.summary()
        payload = case.to_dict()
        assert FaultPlan.from_dict(payload["plan"]) == build_plan(4)

    def test_default_programs_are_the_papers_four(self):
        assert DEFAULT_PROGRAMS == ("adi", "erlebacher", "shallow",
                                    "tomcatv")


class TestChaosCli:
    def test_cli_runs_a_tiny_campaign(self, capsys):
        rc = main(["chaos", "--cases", "3", "--seed", "77",
                   "--programs", "erlebacher", "--case-timeout", "120"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos campaign: 3 cases" in out
        assert "invariant held" in out

    def test_cli_json_output(self, capsys):
        rc = main(["chaos", "--cases", "2", "--seed", "78",
                   "--programs", "erlebacher", "--case-timeout", "120",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 2
        assert payload["violations"] == []

    def test_cli_rejects_unknown_program(self, capsys):
        rc = main(["chaos", "--cases", "1", "--programs", "nosuch"])
        assert rc == 2
