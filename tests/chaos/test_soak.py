"""End-to-end soak tests: a real (small) experiment grid under faults,
plus the CLI wiring of ``repro chaos-soak`` and the chaos flags.
"""

import json

import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.chaos.soak import (
    QUICK_EXPERIMENTS,
    _run_grid,
    _serve_phase,
    run_soak,
    write_trace,
)
from repro.cli import build_parser, make_injector


@pytest.fixture(scope="module")
def soak_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("soak")


@pytest.fixture(scope="module")
def soak_report(soak_dir):
    # One real soak shared by the assertions below (four grid passes of
    # fig9 at quick scale; its serve phase is tested on its own below).
    # The plan fires on *every* cache access — deterministic whatever
    # the cell keys hash to under this commit's code salt — and leaves
    # pool.worker alone so no retry budget can be exhausted.
    return run_soak(
        experiments=("fig9",),
        plan_spec="cache.read=1.0,cache.write=1.0", seed=1, jobs=1,
        serve=False, cache_dir=soak_dir,
    )


class TestRunSoak:
    def test_verdict_and_grid_identity(self, soak_report):
        assert soak_report["identical_grid"] is True
        assert soak_report["trace_deterministic"] is True
        assert soak_report["unrecovered"] == {}
        assert soak_report["ok"] is True

    def test_faults_actually_fired_and_were_recovered(self, soak_report):
        assert soak_report["total_faults_fired"] > 0
        fired = soak_report["faults_fired"]
        assert set(fired) == {"grid_a", "grid_b"}
        # Same plan + seed + warm state: both chaos passes fire alike.
        assert fired["grid_a"] == fired["grid_b"]
        assert fired["grid_a"]["cache.read"] >= 1
        assert fired["grid_a"]["cache.write"] >= 1
        for records in soak_report["trace"].values():
            assert all(r["recovered"] is not None for r in records)
            assert {r["recovered"] for r in records} <= {
                "quarantined", "already_miss", "dropped_write",
            }

    def test_report_is_json_ready_and_persistable(self, soak_report,
                                                  tmp_path):
        path = write_trace(soak_report, tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded["ok"] is True
        assert loaded["plan"]["seed"] == 1
        assert loaded["plan"]["probabilities"] == {
            "cache.read": 1.0, "cache.write": 1.0,
        }

    def test_tier_phase_matches_clean_under_serve_faults(self, soak_report,
                                                         soak_dir, tmp_path):
        grid_dir = soak_dir / "soak-cache"
        clean, _ = _run_grid(("fig9",), "quick", 1, grid_dir, injector=None)
        injector = FaultInjector(FaultPlan.parse(
            "serve.accept=0.5,serve.body=0.5", seed=0
        ))
        out = _serve_phase(("fig9",), "quick", 1, grid_dir, injector,
                           clean)
        assert out["identical_grid"] is True
        fired = injector.fired_by_site()
        assert fired.get("serve.accept", 0) >= 1
        assert injector.unrecovered() == []
        # The served cache is warm, so every lookup that got through
        # hit; each fault cost exactly one tier miss (a dropped GET) or
        # one tier error (a dropped or stalled PUT), never the run.
        tier = out["stats"]["tier"]
        assert tier["hits"] >= 1
        assert tier["misses"] + tier["errors"] == sum(fired.values())

    def test_quick_grid_is_a_subset_of_the_registry(self):
        from repro.cli import EXPERIMENTS

        assert set(QUICK_EXPERIMENTS) <= set(EXPERIMENTS)


class TestCliWiring:
    def test_chaos_soak_parser_defaults(self):
        args = build_parser().parse_args(["chaos-soak", "--quick"])
        assert args.quick is True
        assert args.plan == "0.2"
        assert args.seed == 0
        assert args.skip_serve is False
        assert args.out == "CHAOS_TRACE.json"

    @pytest.mark.parametrize("command", ["run", "suite", "serve"])
    def test_chaos_flags_everywhere(self, command):
        argv = [command] + (["fig9"] if command == "run" else [])
        argv += ["--chaos-plan", "cache.read=0.5", "--chaos-seed", "9"]
        args = build_parser().parse_args(argv)
        assert args.chaos_plan == "cache.read=0.5"
        assert args.chaos_seed == 9
        injector = make_injector(args)
        assert injector is not None
        assert injector.plan.seed == 9
        assert injector.plan.p("cache.read") == 0.5

    def test_no_chaos_flags_means_no_injector(self):
        args = build_parser().parse_args(["run", "fig9"])
        assert make_injector(args) is None
