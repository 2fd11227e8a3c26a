"""RunCache hardening: corrupt entries become quarantined misses.

The first class is the satellite regression for real on-disk damage
(garbage bytes, truncation, unreadable entries); the second drives the
same machinery through injected ``cache.read``/``cache.write`` faults
and checks results stay correct; the third flips bytes *inside* framed
RPT1 blobs — the transport's CRC/digest coverage must turn every flip
into the same quarantine path garbage bytes take — and checks that an
entry that is not framed at all (a bare pickle) is corrupt too.
"""

import pickle

import numpy as np

from repro.chaos import FaultInjector, FaultPlan
from repro.sim import transport
from repro.sim.cache import MISS, RunCache
from repro.sim.jobs import Executor, cell

DOUBLE = "tests.chaos.test_cache_chaos:_double"


def _double(*, x):
    return x * 2


def make_cache(tmp_path, **kwargs):
    return RunCache(tmp_path / "cache", salt="s1", **kwargs)


class TestCorruptEntries:
    def test_garbage_bytes_become_a_quarantined_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}

        cache.path_for(key).write_bytes(b"\x00garbage not a pickle\xff")
        assert cache.get(key) is MISS
        assert cache.corrupt_evictions == 1
        # The entry is gone from the serving path but parked for autopsy.
        assert not cache.path_for(key).exists()
        assert cache.quarantine_path_for(key).exists()
        # Once quarantined it is a plain miss, not another eviction.
        assert cache.get(key) is MISS
        assert cache.corrupt_evictions == 1
        assert cache.stats()["corrupt_evictions"] == 1
        assert cache.stats()["quarantined"] == 1

    def test_truncated_pickle_is_quarantined(self, tmp_path):
        cache = make_cache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, list(range(100)))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is MISS
        assert cache.corrupt_evictions == 1
        assert cache.quarantine_path_for(key).exists()

    def test_entry_that_unpickles_to_an_error_is_quarantined(self, tmp_path):
        # Valid pickle stream, but loading raises (here: a stream that
        # ends with an opcode needing more data).
        cache = make_cache(tmp_path)
        key = "ef" + "0" * 62
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_bytes(pickle.dumps([1, 2, 3])[:-1])
        assert cache.get(key) is MISS
        assert cache.corrupt_evictions == 1

    def test_unreadable_entry_is_quarantined(self, tmp_path):
        # A directory where the entry file should be: open() raises
        # IsADirectoryError (OSError), the non-FileNotFoundError branch.
        cache = make_cache(tmp_path)
        key = "12" + "0" * 62
        cache.path_for(key).mkdir(parents=True)
        assert cache.get(key) is MISS
        assert cache.corrupt_evictions == 1

    def test_absent_entry_is_a_plain_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.get("34" + "0" * 62) is MISS
        assert cache.misses == 1
        assert cache.corrupt_evictions == 0

    def test_put_survives_unwritable_root(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache dir should be")
        cache = RunCache(blocker, salt="s1")
        cache.put("ab" + "0" * 62, {"x": 1})  # must not raise
        assert cache.write_failures == 1
        assert cache.stores == 0


class TestInjectedCacheFaults:
    def test_read_faults_quarantine_and_recompute(self, tmp_path):
        warm = make_cache(tmp_path)
        Executor(cache=warm).run([cell(DOUBLE, x=x) for x in range(4)])
        assert warm.stores == 4

        injector = FaultInjector(FaultPlan((("cache.read", 1.0),)))
        cache = make_cache(tmp_path, injector=injector)
        executor = Executor(cache=cache, injector=injector)
        results = executor.run([cell(DOUBLE, x=x) for x in range(4)])
        assert results == [0, 2, 4, 6]  # corruption never reaches callers
        assert cache.corrupt_evictions == 4
        assert executor.stats.computed == 4
        assert injector.fired_by_site() == {"cache.read": 4}
        assert {r.recovered for r in injector.records} == {"quarantined"}

    def test_read_fault_on_absent_entry_is_already_a_miss(self, tmp_path):
        injector = FaultInjector(FaultPlan((("cache.read", 1.0),)))
        cache = make_cache(tmp_path, injector=injector)
        assert cache.get("ab" + "0" * 62) is MISS
        [record] = injector.records
        assert record.recovered == "already_miss"
        assert cache.corrupt_evictions == 0

    def test_write_faults_drop_stores_but_not_results(self, tmp_path):
        injector = FaultInjector(FaultPlan((("cache.write", 1.0),)))
        cache = make_cache(tmp_path, injector=injector)
        executor = Executor(cache=cache, injector=injector)
        results = executor.run([cell(DOUBLE, x=x) for x in range(3)])
        assert results == [0, 2, 4]
        assert cache.stores == 0
        assert cache.write_failures == 3
        assert {r.recovered for r in injector.records} == {"dropped_write"}
        # Nothing was cached, so a clean re-run recomputes everything.
        clean = make_cache(tmp_path)
        clean_exec = Executor(cache=clean)
        assert clean_exec.run([cell(DOUBLE, x=0)]) == [0]
        assert clean_exec.stats.cache_hits == 0

    def test_same_seed_faults_the_same_keys(self, tmp_path):
        plan = FaultPlan((("cache.read", 0.5),), seed=13)
        traces = []
        for run in ("a", "b"):
            warm = make_cache(tmp_path / run)
            Executor(cache=warm).run([cell(DOUBLE, x=x) for x in range(8)])
            injector = FaultInjector(plan)
            cache = make_cache(tmp_path / run, injector=injector)
            assert Executor(cache=cache, injector=injector).run(
                [cell(DOUBLE, x=x) for x in range(8)]
            ) == [x * 2 for x in range(8)]
            traces.append(sorted((r.site, r.token, r.recovered)
                                 for r in injector.records))
        assert traces[0] == traces[1]
        assert traces[0]  # the 0.5 plan fired at least once over 8 keys


NP_CELL = "tests.chaos.test_cache_chaos:_np_result"


def _np_result(*, n):
    return {
        "col": np.repeat(np.arange(n, dtype=np.uint64), 4096),
        "meta": n,
    }


class TestFramedBlobCorruption:
    """Satellite: zlib/frame corruption quarantines like unpickling."""

    KEY = "ab" + "0" * 62

    def _warm(self, tmp_path):
        cache = make_cache(tmp_path)
        value = _np_result(n=16)
        cache.put(self.KEY, value)
        blob = cache.path_for(self.KEY).read_bytes()
        assert transport.is_framed(blob)
        return cache, value, blob

    def test_byte_flips_anywhere_in_a_framed_entry_quarantine(
        self, tmp_path
    ):
        cache, value, blob = self._warm(tmp_path)
        rng = np.random.default_rng(42)
        positions = sorted(
            {0, 5, 47, 48, 60, len(blob) - 1}
            | set(rng.integers(0, len(blob), 24).tolist())
        )
        for i, pos in enumerate(positions, start=1):
            bad = bytearray(blob)
            bad[pos] ^= 0xFF
            cache.path_for(self.KEY).parent.mkdir(
                parents=True, exist_ok=True
            )
            cache.path_for(self.KEY).write_bytes(bytes(bad))
            cache.quarantine_path_for(self.KEY).unlink(missing_ok=True)
            assert cache.get(self.KEY) is MISS, f"flip at byte {pos}"
            assert cache.corrupt_evictions == i, f"flip at byte {pos}"
            assert cache.quarantine_path_for(self.KEY).exists()

    def test_pristine_framed_entry_still_round_trips(self, tmp_path):
        cache, value, blob = self._warm(tmp_path)
        out = cache.get(self.KEY)
        assert out["meta"] == value["meta"]
        assert np.array_equal(out["col"], value["col"])

    def test_injected_read_fault_differential_with_numpy_cells(
        self, tmp_path
    ):
        """The cache.read fault site flips a byte inside framed entries;
        the run must still produce results identical to a clean pass."""
        cells = [cell(NP_CELL, n=n) for n in (2, 3)]
        clean = Executor().run(cells)

        warm = make_cache(tmp_path)
        Executor(cache=warm).run(cells)
        injector = FaultInjector(FaultPlan((("cache.read", 1.0),)))
        cache = make_cache(tmp_path, injector=injector)
        executor = Executor(cache=cache, injector=injector)
        chaotic = executor.run(cells)
        assert cache.corrupt_evictions == len(cells)
        assert {r.recovered for r in injector.records} == {"quarantined"}
        assert executor.stats.computed == len(cells)
        for a, b in zip(clean, chaotic):
            assert a["meta"] == b["meta"]
            assert np.array_equal(a["col"], b["col"])

    def test_raw_pickle_entry_is_quarantined_and_recomputed(self, tmp_path):
        """RPT1 is the only entry format: a bare pickle (even a valid
        one) is a corrupt miss, and the executor recomputes the cell."""
        cache = make_cache(tmp_path)
        c = cell(DOUBLE, x=21)
        key = c.key(cache.salt)
        # The right answer, just not framed.
        raw = pickle.dumps(42, protocol=pickle.HIGHEST_PROTOCOL)
        cache.put_encoded(key, raw)
        assert cache.get(key) is MISS
        assert not cache.path_for(key).exists()
        assert cache.quarantine_path_for(key).exists()
        assert cache.corrupt_evictions == 1

        cache.put_encoded(key, raw)
        executor = Executor(cache=cache)
        assert executor.run([c]) == [42]
        assert executor.stats.computed == 1
        assert executor.stats.cache_hits == 0
        assert cache.corrupt_evictions == 2
        # The recomputed value replaced the bad entry with a framed one.
        assert transport.is_framed(cache.path_for(key).read_bytes())
