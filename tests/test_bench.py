"""``repro bench``: the suite form, the paper fault cell, flags, gates."""

import argparse
import json
import os

import pytest

from repro import bench
from repro.cli import _suite_gate, main
from repro.sim.config import ScaleProfile
from repro.units import MIB

#: The paper cell on a machine the unit-test budget can build: bt's
#: first steps fit in 2 x 48 paper GB at 1 MiB per paper GB.
SMALL_PAPER = ScaleProfile(name="bench-test", bytes_per_paper_gb=MIB,
                           machine_paper_gb=(48, 48))

PASSES = ("serial", "parallel_cold", "parallel_warm")


@pytest.fixture(scope="module")
def suite_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "B.json"
    assert main(["bench", "--scale", "quick", "--experiments", "fig9",
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def assert_envelope(report, bench_name, scale):
    assert report["bench"] == bench_name
    assert report["scale"] == scale
    assert set(report["env"]) == {"python", "platform", "cpus", "jobs"}
    assert report["wall_seconds"] >= 0
    for row in report["passes"].values():
        assert set(row) == {"seconds", "stats"}


class TestSuiteForm:
    def test_schema_and_identity(self, suite_report):
        assert_envelope(suite_report, "suite", "quick")
        assert tuple(suite_report["passes"]) == PASSES
        assert suite_report["experiments"] == ["fig9"]
        assert suite_report["results_identical"] is True
        assert len(suite_report["results_sha256"]) == 64
        for key in ("cold_speedup", "warm_speedup"):
            assert suite_report[key] > 0

    def test_warm_pass_computes_nothing(self, suite_report):
        assert suite_report["passes"]["parallel_warm"]["stats"]["computed"] == 0

    def test_cold_gate_applies_with_two_jobs_on_two_cpus(self, suite_report):
        env = suite_report["env"]
        assert suite_report["parallel_gate_meaningful"] == (
            min(env["jobs"], env["cpus"]) >= 2
        )
        args = argparse.Namespace(min_warm_speedup=None, min_cold_speedup=1e9)
        failures = _suite_gate(suite_report, args)
        assert bool(failures) == suite_report["parallel_gate_meaningful"]

    def test_cold_gate_skips_serial_fan_out_on_a_multicore_box(
            self, tmp_path, monkeypatch, capsys):
        # --jobs 1 makes the "parallel" cold pass serial plus cache
        # writes; the gate must not fail it however many cores exist.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        out = tmp_path / "B.json"
        assert main(["bench", "--experiments", "fig9", "--jobs", "1",
                     "--min-cold-speedup", "1000", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["env"]["jobs"], report["env"]["cpus"]) == (1, 8)
        assert report["parallel_gate_meaningful"] is False
        assert "skipping --min-cold-speedup" in capsys.readouterr().out


def synthetic_report(pool_failures=(0, 0, 0)):
    """A suite report that passes every gate but the one under test."""
    return {
        "results_identical": True,
        "warm_speedup": 50.0,
        "cold_speedup": 2.0,
        "parallel_gate_meaningful": True,
        "env": {"jobs": 2, "cpus": 2},
        "passes": {
            name: {"seconds": 1.0, "stats": {"pool_failures": n}}
            for name, n in zip(PASSES, pool_failures)
        },
    }


class TestSuiteGate:
    ARGS = argparse.Namespace(min_warm_speedup=5, min_cold_speedup=1.5)

    def test_clean_report_passes(self):
        assert _suite_gate(synthetic_report(), self.ARGS) == []

    def test_broken_pool_fails_the_bench(self):
        # A pass that lost its pool finished on the serial fallback; its
        # timing is not the parallel program's, whatever the cpu count.
        failures = _suite_gate(synthetic_report((0, 1, 0)), self.ARGS)
        assert len(failures) == 1
        assert "parallel_cold" in failures[0]


class TestPaperForm:
    def test_digest_repeats_and_in_budget(self):
        runs = [bench.run_paper_bench(SMALL_PAPER, fault_steps=20)
                for _ in range(2)]
        for report in runs:
            assert_envelope(report, "paper", "bench-test")
            assert report["in_budget"] is True
            stats = report["passes"]["fault"]["stats"]
            assert stats["steps"] == 20 < stats["total_steps"]
            assert stats["faults"] > 0
            assert len(report["state_sha256"]) == 64
            int(report["state_sha256"], 16)
        assert runs[0]["state_sha256"] == runs[1]["state_sha256"]

    @pytest.mark.parametrize("budget, code", [(600.0, 0), (0.0, 1)])
    def test_cli_exits_on_budget(self, tmp_path, monkeypatch, budget, code):
        real = bench.run_paper_bench
        monkeypatch.setattr(
            bench, "run_paper_bench",
            lambda fault_steps=None: real(SMALL_PAPER, fault_steps=fault_steps),
        )
        monkeypatch.setattr(bench, "PAPER_FAULT_BUDGET_S", budget)
        out = tmp_path / "P.json"
        assert main(["bench", "--scale", "paper", "--fault-steps", "5",
                     "--out", str(out)]) == code
        assert json.loads(out.read_text())["in_budget"] is (code == 0)


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["--fault-steps", "200"],
        ["--scale", "default", "--fault-steps", "200"],
        ["--scale", "paper", "--jobs", "2"],
        ["--scale", "paper", "--experiments", "fig9"],
        ["--scale", "paper", "--cache-dir", "x"],
        ["--scale", "paper", "--min-warm-speedup", "5"],
        ["--scale", "paper", "--min-cold-speedup", "1.5"],
        ["--experiments", "nope"],
    ])
    def test_misapplied_flag_exits_2(self, argv, capsys, tmp_path):
        assert main(["bench", *argv, "--out", str(tmp_path / "X.json")]) == 2
        assert "repro bench:" in capsys.readouterr().err
        assert not (tmp_path / "X.json").exists()

    def test_unknown_scale_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--scale", "test"])
        assert exc.value.code == 2
