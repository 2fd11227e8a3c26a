"""FaultPlan / FaultInjector unit tests: validation, hashing, the trace."""

import pytest

from repro.chaos import SITES, FaultInjector, FaultPlan
from repro.chaos.faults import _hash01
from repro.errors import ConfigError


class TestFaultPlan:
    def test_uniform_covers_all_sites(self):
        plan = FaultPlan.uniform(0.25, seed=7)
        assert plan.seed == 7
        assert {site for site, _ in plan.probabilities} == set(SITES)
        assert all(p == 0.25 for _, p in plan.probabilities)
        assert plan.p("cache.read") == 0.25

    def test_unlisted_site_has_zero_probability(self):
        plan = FaultPlan((("cache.read", 0.5),))
        assert plan.p("cache.read") == 0.5
        assert plan.p("pool.worker") == 0.0

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault site"):
            FaultPlan((("disk.melt", 0.5),))

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_out_of_range_probability_rejected(self, p):
        with pytest.raises(ConfigError, match="must be in"):
            FaultPlan((("cache.read", p),))

    def test_p_reads_back_the_spec(self):
        plan = FaultPlan((("cache.read", 0.1), ("clock", 1.0)), seed=11)
        assert plan.seed == 11
        assert {site: plan.p(site) for site in SITES} == {
            "cache.read": 0.1, "cache.write": 0.0, "pool.submit": 0.0,
            "pool.worker": 0.0, "clock": 1.0,
        }


class TestHashDecisions:
    def test_hash01_is_uniform_enough(self):
        values = [_hash01(0, "cache.read", f"tok{i}") for i in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # A seeded hash over distinct tokens should land near p for
        # any threshold; 2000 draws keeps this far from flaky.
        hits = sum(1 for v in values if v < 0.3)
        assert 450 < hits < 750

    def test_same_seed_same_decisions(self):
        a = FaultInjector(FaultPlan.uniform(0.4, seed=5))
        b = FaultInjector(FaultPlan.uniform(0.4, seed=5))
        tokens = [f"cell{i}" for i in range(100)]
        for site in SITES:
            assert [a.decide(site, t) for t in tokens] == \
                   [b.decide(site, t) for t in tokens]

    def test_different_seed_differs(self):
        a = FaultInjector(FaultPlan.uniform(0.4, seed=0))
        b = FaultInjector(FaultPlan.uniform(0.4, seed=1))
        tokens = [f"cell{i}" for i in range(200)]
        assert [a.decide("cache.read", t) for t in tokens] != \
               [b.decide("cache.read", t) for t in tokens]

    def test_decision_independent_of_evaluation_order(self):
        # The hash decision for (site, token) must not depend on what
        # was evaluated before it — this is what makes traces stable
        # under pool-harvest reordering.
        plan = FaultPlan.uniform(0.5, seed=9)
        forward = FaultInjector(plan)
        backward = FaultInjector(plan)
        tokens = [f"t{i}" for i in range(50)]
        fwd = {t: forward.decide("pool.worker", t) for t in tokens}
        bwd = {t: backward.decide("pool.worker", t)
               for t in reversed(tokens)}
        assert fwd == bwd

    def test_zero_probability_never_fires(self):
        inj = FaultInjector(FaultPlan.uniform(0.0))
        assert not any(inj.decide(s, f"t{i}")
                       for s in SITES for i in range(50))

    def test_unit_probability_always_fires(self):
        inj = FaultInjector(FaultPlan.uniform(1.0))
        assert all(inj.decide(s, f"t{i}") for s in SITES for i in range(50))


class TestTrace:
    def test_fire_records_and_decide_does_not(self):
        inj = FaultInjector(FaultPlan.uniform(1.0))
        assert inj.decide("cache.read", "k") is True
        assert inj.records == []
        record = inj.fire("cache.read", "k")
        assert record is not None
        assert (record.site, record.token, record.recovered) == \
               ("cache.read", "k", None)
        assert len(inj.records) == 1

    def test_miss_returns_none(self):
        inj = FaultInjector(FaultPlan.uniform(0.0))
        assert inj.fire("cache.read", "k") is None
        assert inj.records == []

    def test_recover_and_unrecovered(self):
        inj = FaultInjector(FaultPlan.uniform(1.0))
        a = inj.fire("cache.read", "k1")
        b = inj.fire("pool.worker", "k2#a0")
        inj.recover(a, "quarantined")
        assert [r.token for r in inj.unrecovered()] == ["k2#a0"]
        inj.recover(b, "retry_1")
        assert inj.unrecovered() == []
        assert {r.site: r.recovered for r in inj.records} == {
            "cache.read": "quarantined", "pool.worker": "retry_1",
        }

    def test_fired_by_site_counts(self):
        inj = FaultInjector(FaultPlan.uniform(1.0))
        inj.fire("cache.read", "a")
        inj.fire("cache.read", "b")
        inj.fire("clock", "c")
        assert inj.fired_by_site() == {"cache.read": 2, "clock": 1}

    def test_trace_is_canonically_sorted(self):
        inj = FaultInjector(FaultPlan.uniform(1.0))
        inj.fire("pool.worker", "z")
        inj.fire("cache.read", "b")
        inj.fire("cache.read", "a")
        assert sorted((r.site, r.token, r.recovered)
                      for r in inj.records) == [
            ("cache.read", "a", None), ("cache.read", "b", None),
            ("pool.worker", "z", None),
        ]
        # seq records actual firing order.
        assert [(r.seq, r.token) for r in inj.records] == [
            (0, "z"), (1, "b"), (2, "a"),
        ]
