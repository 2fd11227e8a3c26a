"""Tests for the run-cell orchestrator and the content-addressed cache."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.sim.cache import (
    MISS,
    RunCache,
    code_version_salt,
    default_cache_dir,
    encode_spec,
    spec_digest,
)
from repro.sim.config import QUICK_SCALE, ScaleProfile
from repro.sim.jobs import Cell, Executor, Plan, cell, execute, run_plans


def _square(*, x):
    return x * x


def _concat(*, items, sep):
    return sep.join(items)


def _die_in_worker(*, x):
    """Kills worker processes hard; returns normally in the main one."""
    import multiprocessing
    import os

    if multiprocessing.parent_process() is not None:
        os._exit(13)  # simulate an OOM-killed / segfaulted worker
    return x + 100


def _stage(prev=None, *, inc):
    """Chain-stage toy: dep values arrive positionally, state accumulates."""
    return (prev or 0) + inc


def _join(*parts, sep):
    return sep.join(str(p) for p in parts)


SQ = "tests.sim.test_jobs:_square"
CAT = "tests.sim.test_jobs:_concat"
DIE = "tests.sim.test_jobs:_die_in_worker"
STAGE = "tests.sim.test_jobs:_stage"
JOIN = "tests.sim.test_jobs:_join"


def _chain(incs) -> list:
    """A linear chain of ``_stage`` cells, one per increment."""
    cells = []
    prev: tuple = ()
    for inc in incs:
        c = cell(STAGE, deps=prev, inc=inc)
        cells.append(c)
        prev = (c,)
    return cells


class TestSpecEncoding:
    def test_primitives_pass_through(self):
        assert encode_spec({"a": 1, "b": 0.5, "c": None, "d": True}) == {
            "a": 1, "b": 0.5, "c": None, "d": True,
        }

    def test_tuples_become_lists(self):
        assert encode_spec(("svm", ("a", 1))) == ["svm", ["a", 1]]

    def test_dataclass_tagged_with_type(self):
        out = encode_spec(QUICK_SCALE)
        assert out["__dataclass__"].endswith("ScaleProfile")
        assert out["name"] == "quick"

    def test_numpy_scalar(self):
        np = pytest.importorskip("numpy")
        assert encode_spec(np.int64(7)) == 7

    def test_unencodable_rejected(self):
        with pytest.raises(TypeError):
            encode_spec(object())

    def test_digest_stable_and_salted(self):
        spec = {"fn": SQ, "kwargs": {"x": 3}}
        assert spec_digest(spec, "s1") == spec_digest(spec, "s1")
        assert spec_digest(spec, "s1") != spec_digest(spec, "s2")

    def test_digest_changes_with_spec(self):
        a = cell(SQ, x=3)
        b = cell(SQ, x=4)
        assert a.key("salt") != b.key("salt")

    def test_kwarg_order_canonical(self):
        assert cell(CAT, sep="-", items=("a",)) == cell(CAT, items=("a",), sep="-")

    def test_code_salt_nonempty_and_cached(self):
        assert code_version_salt()
        assert code_version_salt() == code_version_salt()


class TestCell:
    def test_resolve_and_execute(self):
        c = cell(SQ, x=5)
        assert c.resolve()(x=5) == 25
        assert execute([c]) == [25]

    def test_bad_ref_rejected(self):
        with pytest.raises(ConfigError):
            Cell(fn="no.colon.here").resolve()

    def test_label_shows_dataclass_fields_and_deps(self):
        from repro.sim.runner import RunOptions

        first = cell(SQ, x=1, options=RunOptions(sample_every=None))
        second = cell(SQ, deps=(first,), x=1, options=RunOptions())
        assert first.label() == "_square(options=RunOptions(sample_every=None), x=1)"
        assert second.label() == "_square(<1 deps>, options=RunOptions(), x=1)"

    def test_distinct_suite_cells_get_distinct_labels(self):
        from repro.cli import suite_plans

        by_key = {}

        def walk(c):
            by_key[c.key("")] = c
            for d in c.deps:
                walk(d)

        for _, _, plan in suite_plans(QUICK_SCALE):
            for c in plan.cells:
                walk(c)
        labels = {c.label() for c in by_key.values()}
        assert len(labels) == len(by_key)


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get("k" * 64) is MISS
        cache.put("k" * 64, {"v": 1})
        assert cache.get("k" * 64) == {"v": 1}
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("a" * 64, [1, 2])
        cache.path_for("a" * 64).write_bytes(b"not a pickle")
        assert cache.get("a" * 64) is MISS

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("a" * 64, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a" * 64) is MISS

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"


class TestExecutor:
    def test_serial_order_preserved(self):
        cells = [cell(SQ, x=i) for i in (3, 1, 2)]
        assert Executor().run(cells) == [9, 1, 4]

    def test_within_batch_dedup(self):
        ex = Executor()
        out = ex.run([cell(SQ, x=2), cell(SQ, x=2), cell(SQ, x=3)])
        assert out == [4, 4, 9]
        assert ex.stats.computed == 2
        assert ex.stats.deduped == 1

    def test_cache_hit_skips_compute(self, tmp_path):
        cache = RunCache(tmp_path)
        cold = Executor(cache=cache)
        assert cold.run([cell(SQ, x=6)]) == [36]
        warm = Executor(cache=RunCache(tmp_path))
        assert warm.run([cell(SQ, x=6)]) == [36]
        assert warm.stats.cache_hits == 1
        assert warm.stats.computed == 0

    def test_spec_change_invalidates(self, tmp_path):
        cache = RunCache(tmp_path)
        Executor(cache=cache).run([cell(SQ, x=6)])
        ex = Executor(cache=RunCache(tmp_path))
        ex.run([cell(SQ, x=7)])
        assert ex.stats.cache_hits == 0
        assert ex.stats.computed == 1

    def test_salt_change_invalidates(self, tmp_path):
        a = RunCache(tmp_path, salt="one")
        Executor(cache=a).run([cell(SQ, x=6)])
        ex = Executor(cache=RunCache(tmp_path, salt="two"))
        ex.run([cell(SQ, x=6)])
        assert ex.stats.cache_hits == 0
        assert ex.stats.computed == 1

    def test_parallel_matches_serial(self, tmp_path):
        cells = [cell(CAT, items=("a", "b", str(i)), sep="-") for i in range(6)]
        serial = Executor().run(cells)
        parallel = Executor(jobs=2, cache=RunCache(tmp_path)).run(cells)
        assert serial == parallel


class TestDagExecutor:
    """Dependency-aware scheduling: chains, diamonds, resume."""

    def test_chain_deps_feed_positionally(self):
        chain = _chain([1, 2, 4])
        ex = Executor()
        # Only the tail is requested; the prefix is computed implicitly.
        assert ex.run([chain[-1]]) == [7]
        assert ex.stats.computed == 3
        assert ex.stats.submitted == 1

    def test_chain_prefix_is_part_of_the_key(self):
        tail_a = cell(STAGE, deps=(cell(STAGE, inc=1),), inc=9)
        tail_b = cell(STAGE, deps=(cell(STAGE, inc=2),), inc=9)
        assert tail_a.kwargs == tail_b.kwargs
        assert tail_a.key("s") != tail_b.key("s")

    def test_diamond_shared_dep_computes_once(self):
        base = cell(STAGE, inc=5)
        left = cell(STAGE, deps=(base,), inc=1)
        right = cell(STAGE, deps=(base,), inc=2)
        top = cell(JOIN, deps=(left, right), sep="-")
        ex = Executor()
        assert ex.run([top]) == ["6-7"]
        assert ex.stats.computed == 4

    def test_requested_dep_and_dependent_both_returned(self):
        s1 = cell(STAGE, inc=3)
        s2 = cell(STAGE, deps=(s1,), inc=4)
        ex = Executor()
        assert ex.run([s1, s2]) == [3, 7]
        assert ex.stats.computed == 2

    def test_final_stage_hit_never_consults_the_chain(self, tmp_path):
        chain = _chain([1, 2])
        Executor(cache=RunCache(tmp_path)).run([chain[-1]])
        warm = Executor(cache=RunCache(tmp_path))
        assert warm.run([chain[-1]]) == [3]
        assert warm.stats.cache_hits == 1
        assert warm.stats.computed == 0  # stage 1 never even loaded

    def test_interrupted_chain_resumes_from_checkpoint(self, tmp_path):
        chain = _chain([1, 2, 4, 8])
        # "Killed" after two stages...
        first = Executor(cache=RunCache(tmp_path))
        first.run([chain[1]])
        assert first.stats.computed == 2
        # ...the rerun recomputes only the unfinished suffix.
        resumed = Executor(cache=RunCache(tmp_path))
        assert resumed.run([chain[-1]]) == [15]
        assert resumed.stats.cache_hits == 1  # stage 2's checkpoint
        assert resumed.stats.computed == 2    # stages 3 and 4 only

    def test_parallel_dag_matches_serial(self, tmp_path):
        cells = []
        for i in range(3):
            s1 = cell(STAGE, inc=i)
            s2 = cell(STAGE, deps=(s1,), inc=10)
            cells.extend([s1, s2])
        serial = Executor().run(cells)
        with Executor(jobs=2, cache=RunCache(tmp_path)) as ex:
            parallel = ex.run(cells)
        assert serial == parallel == [0, 10, 1, 11, 2, 12]

    def test_pool_persists_across_runs_until_close(self, tmp_path):
        ex = Executor(jobs=2, cache=RunCache(tmp_path))
        with ex:
            ex.run([cell(SQ, x=2), cell(SQ, x=3)])
            pool = ex._pool
            assert pool is not None
            ex.run([cell(SQ, x=4), cell(SQ, x=5)])
            assert ex._pool is pool  # warm workers reused
        assert ex._pool is None


class TestBrokenPoolFallback:
    def test_crashed_workers_fall_back_to_serial(self, tmp_path):
        # Every pooled cell kills its worker; the executor must survive,
        # recompute serially in-process, and report the degradation.
        cells = [cell(DIE, x=1), cell(DIE, x=2), cell(DIE, x=3)]
        ex = Executor(jobs=2, cache=RunCache(tmp_path))
        assert ex.run(cells) == [101, 102, 103]
        assert ex.stats.pool_failures == 1
        assert ex.stats.retried_serial == 3
        assert ex.stats.computed == 3
        # The fallback results were cached like any others.
        warm = Executor(cache=RunCache(tmp_path))
        assert warm.run(cells) == [101, 102, 103]
        assert warm.stats.cache_hits == 3

    def test_cell_exceptions_still_propagate(self):
        with pytest.raises(ConfigError):
            Executor(jobs=2).run([
                Cell(fn="no.colon.here"), Cell(fn="also.none"),
            ])

    def test_stats_merge_includes_fallback_counters(self):
        from repro.sim.jobs import ExecutorStats

        a = ExecutorStats(pool_failures=1, retried_serial=2)
        b = ExecutorStats(pool_failures=1, retried_serial=3, computed=4)
        a.merge(b)
        assert a.pool_failures == 2
        assert a.retried_serial == 5
        assert a.computed == 4


class TestCacheLifecycle:
    def _fill(self, tmp_path, n=4, size=1000):
        import os
        import time as _time

        cache = RunCache(tmp_path)
        now = _time.time()
        for i in range(n):
            key = f"{i:02x}" * 32
            cache.put(key, "v" * size)
            # Stamp distinct ages, oldest first.
            os.utime(cache.path_for(key), (now - 1000 + i, now - 1000 + i))
        return cache

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = self._fill(tmp_path, n=3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        # Entries are framed RPT1 blobs; the "v" * 1000 payload
        # compresses, so logical (pre-compression) bytes exceed stored.
        assert stats["framed_entries"] == 3
        assert stats["logical_bytes"] > 3 * 1000
        assert stats["compression_ratio"] > 1.0
        assert stats["oldest_mtime"] < stats["newest_mtime"]

    def test_empty_cache_stats(self, tmp_path):
        stats = RunCache(tmp_path / "nothing-here").stats()
        assert stats == {
            "root": str(tmp_path / "nothing-here"), "entries": 0,
            "total_bytes": 0, "oldest_mtime": None, "newest_mtime": None,
            "corrupt_evictions": 0, "write_failures": 0, "quarantined": 0,
            "quarantined_bytes": 0, "framed_entries": 0, "framed_bytes": 0,
            "logical_bytes": 0, "compression_ratio": 1.0,
        }

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = self._fill(tmp_path, n=4)
        entry = cache.stats()["total_bytes"] // 4
        summary = cache.prune(max_bytes=2 * entry)
        assert summary["removed"] == 2
        assert summary["remaining_entries"] == 2
        # The two oldest are gone, the two newest survive.
        assert cache.get("00" * 32) is MISS
        assert cache.get("01" * 32) is MISS
        assert cache.get("02" * 32) == "v" * 1000
        assert cache.get("03" * 32) == "v" * 1000

    def test_reads_refresh_lru_position(self, tmp_path):
        cache = self._fill(tmp_path, n=3)
        # Touch the oldest entry: a get() bumps its mtime to now.
        assert cache.get("00" * 32) == "v" * 1000
        entry = cache.stats()["total_bytes"] // 3
        cache.prune(max_bytes=entry)
        # The recently-read entry survived; the stale middle ones died.
        assert cache.get("00" * 32) == "v" * 1000
        assert cache.get("01" * 32) is MISS
        assert cache.get("02" * 32) is MISS

    def test_prune_to_zero_clears_everything(self, tmp_path):
        cache = self._fill(tmp_path, n=2)
        summary = cache.prune(max_bytes=0)
        assert summary["removed"] == 2
        assert summary["remaining_bytes"] == 0
        assert len(cache) == 0

    def test_prune_noop_under_budget(self, tmp_path):
        cache = self._fill(tmp_path, n=2)
        summary = cache.prune(max_bytes=10 ** 9)
        assert summary["removed"] == 0
        assert len(cache) == 2

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunCache(tmp_path).prune(max_bytes=-1)

    def test_prune_tolerates_concurrent_reader_and_pruner(
        self, tmp_path, monkeypatch
    ):
        # Regression: prune() used to unlink straight off its scan-time
        # listing, so a file removed by a concurrent pruner raised and
        # a file a concurrent get() had just refreshed was evicted on
        # its stale mtime.  Race both between the scan and the walk.
        import os
        import time as _time

        cache = self._fill(tmp_path, n=4)
        real_entries = cache._entries

        def racy_entries():
            entries = real_entries()
            # Another pruner removes the oldest after our scan...
            cache.path_for("00" * 32).unlink()
            # ...and a concurrent get() refreshes the second-oldest.
            now = _time.time()
            os.utime(cache.path_for("01" * 32), (now, now))
            return entries

        monkeypatch.setattr(cache, "_entries", racy_entries)
        summary = cache.prune(max_bytes=0)
        # No crash; the vanished entry's bytes counted as freed, the
        # hot (just-read) entry survived, the cold tail was evicted.
        assert summary["removed"] == 2
        assert cache.get("01" * 32) == "v" * 1000
        assert cache.get("02" * 32) is MISS
        assert cache.get("03" * 32) is MISS


class TestPlans:
    def test_plan_assembles_in_cell_order(self):
        plan = Plan([cell(SQ, x=2), cell(SQ, x=3)], assemble=tuple)
        assert plan.run() == (4, 9)

    def test_run_plans_slices_and_shares(self, tmp_path):
        shared = cell(SQ, x=9)
        plans = [
            Plan([shared, cell(SQ, x=1)], assemble=list),
            Plan([shared], assemble=list),
        ]
        ex = Executor(cache=RunCache(tmp_path))
        out = run_plans(plans, ex)
        assert out == [[81, 1], [81]]
        # The shared cell computes once; its twin is deduped in-batch.
        assert ex.stats.computed == 2
        assert ex.stats.deduped == 1


SMOKE = ScaleProfile(
    name="smoke", bytes_per_paper_gb=1 << 20, machine_paper_gb=(128, 128)
)


class TestSimCellsDeterministic:
    """Real simulation cells are pure functions of their spec."""

    def test_native_cell_repeatable_and_cacheable(self, tmp_path):
        from repro.experiments.serialize import to_jsonable

        c = cell(
            "repro.experiments.common:run_cell_native",
            workload="svm", policy="ca", scale=SMOKE,
        )
        blob = lambda r: json.dumps(to_jsonable(r), sort_keys=True)
        first = blob(execute([c])[0])
        again = blob(execute([c])[0])
        warm = blob(Executor(cache=RunCache(tmp_path)).run([c])[0])
        hit = Executor(cache=RunCache(tmp_path))
        cached = blob(hit.run([c])[0])
        assert first == again == warm == cached
        assert hit.stats.cache_hits == 1
