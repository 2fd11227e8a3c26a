"""Fig. 10: the multi-programmed case — two SVM instances at once.

Two processes run the same workload concurrently (their allocation
steps interleave).  Reported: each instance's coverage of its 32
largest mappings over time.

Paper shapes: CA's next-fit placement keeps the two footprints in
disjoint regions (coverage near eager's, without pre-allocation);
Ranger struggles — scanning processes serially, it keeps migrating
pages between the two footprints and neither coalesces well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import common
from repro.sim.config import ScaleProfile
from repro.sim.jobs import Executor, Plan, cell


@dataclass
class Fig10Result:
    """Per-policy, per-instance coverage and mapping-count series."""

    series: dict[tuple[str, int], list[float]] = field(default_factory=dict)
    mappings: dict[tuple[str, int], list[int]] = field(default_factory=dict)

    def final_mappings(self, policy: str) -> tuple[int, int]:
        return (
            self.mappings[(policy, 0)][-1],
            self.mappings[(policy, 1)][-1],
        )

    def report(self) -> str:
        rows = []
        for (policy, instance), series in sorted(self.series.items()):
            rows.append(
                (
                    policy,
                    instance,
                    common.pct(min(series)),
                    common.pct(series[-1]),
                    self.mappings[(policy, instance)][-1],
                )
            )
        return common.format_table(
            ("policy", "instance", "cov32(min)", "cov32(final)", "maps99(final)"),
            rows,
        )


def run_cell_multiprog(
    *,
    policy: str,
    workload: str,
    scale: ScaleProfile,
    sample_every: int,
) -> list[tuple[list[float], list[int]]]:
    """Interleave two instances on one machine; per-instance series."""
    from repro.sim.multiprog import interleave, native_instances

    machine = common.native_machine(policy, scale)
    workloads = [common.workload(workload, scale, seed=i) for i in range(2)]
    instances = native_instances(machine, workloads)
    interleave(
        instances,
        sample_every=sample_every,
        daemons=machine.kernel.run_daemons,
    )
    out = [
        (
            [s.coverage_32 for s in instance.samples],
            [s.mappings_99 for s in instance.samples],
        )
        for instance in instances
    ]
    for process in machine.kernel.iter_processes():
        machine.kernel.exit_process(process)
    return out


def plan(
    scale: ScaleProfile | None = None,
    policies: tuple[str, ...] = ("thp", "eager", "ranger", "ca"),
    workload_name: str = "svm",
    sample_every: int = 16,
) -> Plan:
    """One two-instance interleaving cell per policy."""
    scale = scale or common.QUICK_SCALE
    cells = [
        cell(
            "repro.experiments.fig10:run_cell_multiprog",
            policy=policy,
            workload=workload_name,
            scale=scale,
            sample_every=sample_every,
        )
        for policy in policies
    ]

    def assemble(results) -> Fig10Result:
        out = Fig10Result()
        for policy, instances in zip(policies, results):
            for i, (coverage, mappings) in enumerate(instances):
                out.series[(policy, i)] = coverage
                out.mappings[(policy, i)] = mappings
        return out

    return Plan(cells, assemble)


def run(
    scale: ScaleProfile | None = None,
    policies: tuple[str, ...] = ("thp", "eager", "ranger", "ca"),
    workload_name: str = "svm",
    sample_every: int = 16,
    executor: Executor | None = None,
) -> Fig10Result:
    """Interleave two instances' allocation phases on one machine."""
    return plan(scale, policies, workload_name, sample_every).run(executor)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().report())


if __name__ == "__main__":  # pragma: no cover
    main()
