"""Tests of the benchmark runner, at a smoke scale that runs in seconds.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import cases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from repro.experiments import common  # noqa: E402
from repro.sim.config import HardwareConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_pass_digests(case) -> dict:
    case.setup()
    return {op.name: case.digest(op.run()) for op in case.ops()}


@pytest.fixture(scope="module")
def replay_digests():
    return one_pass_digests(cases.make("tlb_replay", 0, test_scale=True))


class TestMetricNames:
    def test_names_are_well_formed(self):
        spec = benchmark_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        assert all(NAME.fullmatch(n) for n in names), names
        assert len(names) == len(set(names))

    def test_runner_prints_exactly_the_declared_metrics(self):
        spec = benchmark_spec()
        case = cases.make("virt_chain", 0, test_scale=True)
        plain = run.run(case, 0.0, False, {})
        traced = run.run(case, 0.0, True, {})
        assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        assert sorted(traced["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
        for result, declared in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
            units = {m["name"]: m["unit"] for m in declared}
            assert {k: m["unit"] for k, m in result["metrics"].items()} == units

    def test_layer_map_covers_every_layer_metric(self):
        with open(os.path.join(HERE, "layers.json")) as fh:
            layer_map = json.load(fh)["map"]
        assert sorted(layer_map) == sorted(m["name"] for m in benchmark_spec()["per_layer"])


class TestRecordedBreakdown:
    @pytest.fixture(scope="class")
    def layers(self):
        with open(os.path.join(HERE, "layers.json")) as fh:
            return json.load(fh)

    def test_each_workload_loads_its_layer_first(self, layers):
        workloads = layers["breakdown"]["workloads"]
        for name, layer in (("native_grid", "kernel"), ("virt_chain", "page_cache"),
                            ("tlb_replay", "hw")):
            assert next(iter(workloads[name]["share_by_layer"])) == layer, name

    def test_recorded_breakdowns_reconcile(self, layers):
        recorded = [w["metrics"] for w in layers["breakdown"]["workloads"].values()]
        recorded.append(layers["quick_suite"]["metrics"])
        for metrics in recorded:
            spans = sum(v for k, v in metrics.items()
                        if k.endswith("_s") and k != "traced_wall_s")
            assert spans == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
            assert metrics["other_s"] >= 0


class TestTracer:
    def test_self_times_reconcile_with_wall_time(self):
        case = cases.make("virt_chain", 0, test_scale=True)
        case.setup()
        tracer = tracing.Tracer()
        with tracer:
            times, attempted, failed = run.measure(case, 0.0, {}, single_pass=True)
        assert (attempted, failed) == (len(common.SUITE), 0)
        wall = run.pass_seconds(times)
        roots = tracer.root_seconds()
        assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-9)
        assert 0.5 * wall < roots <= wall
        metrics = tracer.layer_metrics(wall, wall)
        layers = sum(v for k, v in metrics.items()
                     if k.endswith("_s") and k not in ("traced_wall_s", "other_s"))
        assert layers + metrics["other_s"] == pytest.approx(wall, rel=1e-9)
        assert metrics["other_s"] >= 0
        for i, (_, start, end, parent) in enumerate(tracer.spans):
            assert start <= end and parent < i
            if parent >= 0:
                p_start, p_end = tracer.spans[parent][1:3]
                assert p_start <= start and end <= p_end

    def test_every_layer_of_the_chain_is_seen(self):
        case = cases.make("virt_chain", 0, test_scale=True)
        result = run.run(case, 0.0, True, {})
        values = {k: m["value"] for k, m in result["metrics"].items()}
        for name in ("mm.boot_s", "kernel.touch_s", "page_cache.read_s",
                     "page_cache.drop_s", "virt.vm_boot_s", "hw.tlb_s",
                     "transport.checkpoint_s", "transport.resume_s"):
            assert values[name] > 0, name
        assert values["mm.boots"] == 1
        assert values["workloads.accesses"] == len(common.SUITE) * case.trace_len


class TestNoWrappersWhenUntraced:
    def test_hooks_only_live_inside_the_traced_pass(self):
        case = cases.make("tlb_replay", 0, test_scale=True)
        seen = []
        ops = case.ops

        def probing_ops():
            return [cases.Op("probe", lambda: seen.append(tracing.installed()))] + ops()

        case.ops = probing_ops
        case.digest = lambda out: "probe" if out is None else cases.TlbReplay.digest(out)
        result = run.run(case, 0.0, True, {})
        assert result["correct"]
        untraced, traced = seen
        assert untraced == []
        assert len(traced) == len(tracing.HOOKS)
        assert tracing.installed() == []

    def test_uninstall_restores_the_originals(self):
        from repro.hw.translation import TranslationView
        from repro.sim.kernel import Kernel

        before = (vars(Kernel)["touch_range"], vars(TranslationView)["virtualized"])
        with tracing.Tracer():
            assert vars(Kernel)["touch_range"] is not before[0]
        after = (vars(Kernel)["touch_range"], vars(TranslationView)["virtualized"])
        assert after == before


class TestDigests:
    def test_recorded_digests_pass(self, replay_digests):
        case = cases.make("tlb_replay", 0, test_scale=True)
        result = run.run(case, 0.0, False, replay_digests)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(replay_digests)

    def test_tampered_digest_is_a_failed_op(self, replay_digests):
        tampered = dict(replay_digests)
        victim = sorted(tampered)[3]
        tampered[victim] = "0" * 64
        case = cases.make("tlb_replay", 0, test_scale=True)
        result = run.run(case, 0.0, False, tampered)
        assert result["failed"] == 1 and not result["correct"]

    def test_raising_op_is_a_failed_op(self):
        case = cases.make("tlb_replay", 0, test_scale=True)
        ops = case.ops

        def broken_ops():
            out = ops()
            out[2] = cases.Op(out[2].name, lambda: 1 / 0)
            return out

        case.ops = broken_ops
        result = run.run(case, 0.0, False, {})
        assert result["failed"] == 1 and result["attempted"] == 3
        assert not result["correct"]

    def test_two_seeds_give_different_digests(self, replay_digests):
        other = one_pass_digests(cases.make("tlb_replay", 1, test_scale=True))
        assert other.keys() == replay_digests.keys()
        assert all(other[k] != replay_digests[k] for k in other)
        again = one_pass_digests(cases.make("tlb_replay", 0, test_scale=True))
        assert again == replay_digests

    def test_chain_stages_match_the_stage_cell(self):
        """At the cells' own seed (0) the runner's stage calls reproduce
        ``run_cell_virt_sim_stage`` exactly."""
        case = cases.make("virt_chain", 0, test_scale=True)
        mine = [case.digest(op.run()) for op in case.ops()]
        prev = []
        for name in common.SUITE:
            prev.append(common.run_cell_virt_sim_stage(
                *prev, host_policy="ca", guest_policy="ca", workload=name,
                scale=case.scale, hw=HardwareConfig(), trace_len=case.trace_len,
            ))
        assert mine == [case.digest(stage) for stage in prev]

    def test_recorded_file_covers_two_seeds_per_workload(self):
        with open(run.DIGESTS) as fh:
            recorded = json.load(fh)
        assert sorted(recorded) == sorted(cases.WORKLOADS)
        for name, by_seed in recorded.items():
            assert sorted(by_seed) == ["0", "1"]
            case = cases.make(name, 0)
            if name != "tlb_replay":  # tlb_replay's ops exist after set-up
                assert sorted(by_seed["0"]) == sorted(op.name for op in case.ops())


class TestCommandLine:
    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "native_grid",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
             "--seed", "0", "--seconds", "1"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2 and "native_grid" in proc.stderr
