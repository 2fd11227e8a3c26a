"""Executor hardening: crashed workers and broken pools never change
results — only the stats and the fault trace.
"""

import pytest

from repro.chaos import FakeClock, FaultInjector, FaultPlan
from repro.sim.jobs import Executor, WorkerCrashLoop, cell

TRIPLE = "tests.chaos.test_executor_chaos:_triple"


def _triple(*, x):
    return x * 3


def cells(n):
    return [cell(TRIPLE, x=x) for x in range(n)]


def make(injector, **kwargs):
    kwargs.setdefault("backoff_base", 0.001)
    return Executor(injector=injector, **kwargs)


class TestWorkerCrashes:
    def test_crashes_are_retried_to_the_right_answer(self):
        injector = FaultInjector(FaultPlan((("pool.worker", 0.5),), seed=2))
        executor = make(injector, max_attempts=8)
        assert executor.run(cells(8)) == [x * 3 for x in range(8)]
        assert executor.stats.worker_crashes > 0
        assert executor.stats.cell_retries == executor.stats.worker_crashes
        assert injector.unrecovered() == []
        assert all(r.recovered.startswith("retry_")
                   for r in injector.records if r.site == "pool.worker")

    def test_exhausted_budget_raises_crash_loop(self):
        injector = FaultInjector(FaultPlan((("pool.worker", 1.0),)))
        executor = make(injector, max_attempts=3)
        with pytest.raises(WorkerCrashLoop, match="lost 3 worker"):
            executor.run(cells(1))
        assert executor.stats.worker_crashes == 3
        assert executor.stats.cell_retries == 2
        # The final, unanswered crash stays in the trace as unrecovered —
        # exactly what the differential tests flag as a bug elsewhere.
        assert len(injector.unrecovered()) == 1

    def test_backoff_reads_the_injected_clock(self):
        injector = FaultInjector(FaultPlan((("pool.worker", 0.6),), seed=4))
        clock = FakeClock()
        executor = Executor(injector=injector, clock=clock,
                            max_attempts=10, backoff_base=0.5)
        assert executor.run(cells(6)) == [x * 3 for x in range(6)]
        assert executor.stats.cell_retries > 0
        # Every backoff "slept" on fake time: real wall time untouched,
        # fake time advanced by the summed exponential delays.
        assert clock.monotonic() > 1000.0

    def test_clock_faults_absorb_the_backoff_jump(self):
        injector = FaultInjector(FaultPlan(
            (("pool.worker", 0.6), ("clock", 1.0)), seed=4
        ))
        clock = FakeClock()
        executor = Executor(injector=injector, clock=clock,
                            max_attempts=10, backoff_base=0.5)
        assert executor.run(cells(6)) == [x * 3 for x in range(6)]
        jumps = [r for r in injector.records if r.site == "clock"]
        assert jumps
        assert {r.recovered for r in jumps} == {"jump_absorbed"}
        assert clock.monotonic() == 1000.0  # no backoff ever slept


class TestPoolFaults:
    def test_submit_fault_degrades_to_serial(self):
        injector = FaultInjector(FaultPlan((("pool.submit", 1.0),)))
        executor = make(injector, jobs=4)
        assert executor.run(cells(5)) == [x * 3 for x in range(5)]
        assert executor.stats.pool_failures == 1
        assert executor.stats.retried_serial == 5
        assert executor.stats.computed == 5
        [record] = injector.records
        assert (record.site, record.recovered) == ("pool.submit",
                                                   "serial_retry")

    def test_worker_faults_on_the_real_pool_path(self):
        injector = FaultInjector(FaultPlan((("pool.worker", 0.5),), seed=2))
        executor = make(injector, jobs=2, max_attempts=8)
        assert executor.run(cells(8)) == [x * 3 for x in range(8)]
        assert executor.stats.worker_crashes > 0
        assert injector.unrecovered() == []

    def test_serial_and_pool_traces_match(self):
        # Hash-based decisions: the same plan faults the same cells
        # whether the batch runs in-process or through the pool.
        plan = FaultPlan((("pool.worker", 0.5),), seed=2)
        traces = []
        for jobs in (1, 2):
            injector = FaultInjector(plan)
            executor = make(injector, jobs=jobs, max_attempts=8)
            assert executor.run(cells(8)) == [x * 3 for x in range(8)]
            traces.append(sorted((r.site, r.token, r.recovered)
                                 for r in injector.records))
        assert traces[0] == traces[1]
        assert traces[0]


class TestDisabledInjection:
    def test_none_injector_is_the_clean_path(self):
        executor = Executor()
        assert executor.run(cells(4)) == [x * 3 for x in range(4)]
        assert executor.stats.worker_crashes == 0
        assert executor.stats.cell_retries == 0
        assert executor.stats.pool_failures == 0
