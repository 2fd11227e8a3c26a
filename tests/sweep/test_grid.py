"""SweepSpec validation, expansion and dedup."""

import pytest

from repro.sweep.grid import (
    BASE_SCHEMES,
    MAX_POINTS,
    SCHEMES,
    GridPoint,
    SweepSpec,
    SweepValidationError,
)


def spec(**overrides) -> SweepSpec:
    base = {"policies": ["thp", "ca"], "workloads": ["svm", "pagerank"]}
    base.update(overrides)
    return SweepSpec.from_request(base)


class TestValidation:
    def test_defaults_fill_in(self):
        # The default scheme axis stays the paper's own comparison;
        # the related-work schemes are opt-in (default-off guard).
        s = SweepSpec.from_request({})
        assert s.policies == ("thp", "ca")
        assert s.schemes == BASE_SCHEMES
        assert s.scale == "quick"
        assert set(BASE_SCHEMES) < set(SCHEMES)

    def test_new_schemes_opt_in(self):
        s = spec(schemes=list(SCHEMES))
        assert s.schemes == SCHEMES
        # ... and can be excluded point-wise like any axis value.
        s = spec(schemes=list(SCHEMES), exclude=[{"scheme": "utopia"}])
        assert all(p.scheme != "utopia" for p in s.points())

    @pytest.mark.parametrize("field,value,fragment", [
        ("policies", ["nope"], "unknown policy"),
        ("schemes", ["sep"], "unknown scheme"),
        ("workloads", ["webserver"], "unknown workload"),
        ("policies", [], "non-empty list"),
        ("scale", "galactic", "unknown scale"),
        ("trace_len", 0, "trace_len"),
        ("trace_len", 10_000_000, "trace_len"),
        ("hog", 1.5, "hog"),
        ("hog", -0.1, "hog"),
        ("include", "policy=ca", "list of axis filters"),
        ("include", [{"flavor": "ca"}], "filter axis"),
        ("include", [{}], "empty include filter"),
    ])
    def test_bad_values_rejected(self, field, value, fragment):
        with pytest.raises(SweepValidationError, match=fragment):
            spec(**{field: value})

    def test_unknown_field_rejected(self):
        with pytest.raises(SweepValidationError, match="unknown sweep field"):
            SweepSpec.from_request({"policies": ["thp"], "colour": "red"})

    def test_non_object_body_rejected(self):
        with pytest.raises(SweepValidationError, match="must be an object"):
            SweepSpec.from_request([1, 2, 3])

    def test_filters_must_leave_points(self):
        with pytest.raises(SweepValidationError, match="exclude every"):
            spec(include=[{"policy": "thp"}], exclude=[{"policy": "thp"}])

    def test_cap_enforced(self):
        # The public axes cannot reach the cap, so exercise points()
        # directly through the frozen constructor.
        wide = SweepSpec(
            policies=tuple(f"p{i}" for i in range(32)),
            schemes=tuple(f"s{i}" for i in range(8)),
            workloads=("w0", "w1", "w2"),
        )
        assert len(wide.points()) > MAX_POINTS


class TestExpansion:
    def test_both_cells_of_a_point_carry_seed_and_hog(self):
        s = spec(seed=5, hog=0.5)
        for c in s.cells_for(s.points()[0]):
            kwargs = dict(c.kwargs)
            assert (kwargs["seed"], kwargs["hog"]) == (5, 0.5), c.fn

    def test_workload_major_order(self):
        s = spec(schemes=["paging", "spot"])
        labels = [p.label for p in s.points()]
        assert labels[:4] == [
            "svm/thp/paging", "svm/thp/spot",
            "svm/ca/paging", "svm/ca/spot",
        ]
        assert len(labels) == 2 * 2 * 2

    def test_scheme_axis_shares_cells(self):
        s = spec()  # 2 policies x 4 schemes x 2 workloads = 16 points
        points, cells, refs = s.expand()
        assert len(points) == 16
        # One (native, sim) pair per (policy, workload): 2*2*2 = 8.
        assert len(cells) == 8
        assert len(refs) == len(points)
        # All four schemes of one (workload, policy) share both cells.
        by_pair = {}
        for p, r in zip(points, refs):
            by_pair.setdefault((p.workload, p.policy), set()).add(r)
        assert all(len(rs) == 1 for rs in by_pair.values())

    def test_expanded_scheme_axis_still_shares_cells(self):
        # All seven schemes: 2 policies x 7 schemes x 2 workloads = 28
        # points, still one (native, sim) cell pair per (policy,
        # workload) — the new schemes read their own overhead columns
        # off the same shared simulations.
        s = spec(schemes=list(SCHEMES))
        points, cells, refs = s.expand()
        assert len(points) == 2 * len(SCHEMES) * 2
        assert len(cells) == 8
        by_pair = {}
        for p, r in zip(points, refs):
            by_pair.setdefault((p.workload, p.policy), set()).add(r)
        assert all(len(rs) == 1 for rs in by_pair.values())
        # The base grid's cells are the *same* cells: widening the
        # scheme axis adds zero new simulation work.
        import json

        from repro.sim.cache import encode_spec

        def keys(cs):
            return {json.dumps(encode_spec(c.spec()), sort_keys=True)
                    for c in cs}

        assert keys(cells) == keys(spec().expand()[1])

    def test_include_exclude(self):
        s = spec(include=[{"policy": "ca"}],
                 exclude=[{"scheme": "paging"}, {"workload": "pagerank"}])
        points = s.points()
        assert points  # ca x (non-paging schemes) x svm
        assert all(p.policy == "ca" for p in points)
        assert all(p.scheme != "paging" for p in points)
        assert all(p.workload == "svm" for p in points)

    def test_conjunctive_clause(self):
        s = spec(exclude=[{"policy": "ca", "scheme": "ds"}])
        labels = [p.label for p in s.points()]
        assert "svm/ca/ds" not in labels
        assert "svm/ca/spot" in labels and "svm/thp/ds" in labels


class TestDigest:
    def test_spelling_invariance(self):
        # Two spellings of one spec expand to cells with the same cache
        # digests, so they share every cache entry.
        from repro.sim.cache import spec_digest

        a = SweepSpec.from_request({"policies": "thp,ca",
                                    "workloads": ["svm"]})
        b = SweepSpec.from_request({"policies": ["THP", "ca", "thp"],
                                    "workloads": ["svm"]})
        assert a == b

        def digests(s):
            return [spec_digest(c.spec(), "salt") for c in s.expand()[1]]

        assert digests(a) == digests(b)


class TestGridPoint:
    def test_matches(self):
        p = GridPoint(policy="ca", scheme="spot", workload="svm")
        assert p.matches((("policy", "ca"), ("scheme", "spot")))
        assert not p.matches((("policy", "ca"), ("scheme", "ds")))
        assert p.as_dict() == {"policy": "ca", "scheme": "spot",
                               "workload": "svm"}
