"""Cache and pool recovery under real damage: results never change.

Every case breaks something real — bytes of entries on disk, a regular
file where the cache root should be — and checks the run cache turns
the damage into quarantined misses or dropped stores while the results
stay byte-identical to an undisturbed run.  Workers that really die
(``os._exit`` in the pool) are ``TestBrokenPoolFallback`` in
``tests/sim/test_jobs.py``.

- :class:`TestCorruptEntries`: garbage, truncated and unreadable
  entries quarantine; an unwritable root drops stores.
- :class:`TestFramedBlobCorruption`: a byte flipped anywhere inside a
  framed RPT1 entry is caught by the transport's CRC/digest coverage
  and takes the same quarantine path; an unframed entry is corrupt too.
- :class:`TestDamagedGrid`: a seeded subset of a warm cache's entries
  damaged, serial and through the pool; every entry damaged, then
  healed by the recompute; an unwritable root under the pool.
- :class:`TestSuiteGridUnderDamage`: the real fig 9 quick grid through
  :func:`repro.cli.run_suite_grid` against a fully damaged cache, an
  unwritable root, and a copy of the warm cache directory.
"""

import json
import pickle
import shutil

import numpy as np
import pytest

from repro.cli import SCALES, run_suite_grid
from repro.sim import transport
from repro.sim.cache import MISS, RunCache
from repro.sim.jobs import Executor, Plan, cell, run_plans

DOUBLE = "tests.sim.test_recovery:_double"
NP_CELL = "tests.sim.test_recovery:_np_result"
MIX = "tests.sim.test_recovery:_mix"


def _double(*, x):
    return x * 2


def _np_result(*, n):
    return {
        "col": np.repeat(np.arange(n, dtype=np.uint64), 4096),
        "meta": n,
    }


def _mix(*, a, b):
    # Non-trivial but pure: floats exercise exact byte comparison.
    return {"sum": a + b, "ratio": a / b, "tag": f"{a}/{b}"}


def make_cache(tmp_path):
    return RunCache(tmp_path / "cache", salt="s1")


def flip_byte(path, pos=-1):
    """Damage an entry in place: invert one byte (the last by default)."""
    data = bytearray(path.read_bytes())
    data[pos] ^= 0xFF
    path.write_bytes(bytes(data))


def entries(cache_dir):
    """The live ``*.pkl`` entries of a cache directory, sorted."""
    return sorted(cache_dir.glob("*/*.pkl"))


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

    def test_absent_entry_next_to_a_damaged_one_is_a_plain_miss(
            self, tmp_path):
        # Damage is found per entry, on read: a miss on a neighbour in
        # the same shard neither evicts nor moves the damaged entry.
        cache = make_cache(tmp_path)
        damaged, absent = "56" + "0" * 62, "56" + "1" * 62
        cache.put(damaged, {"x": 1})
        flip_byte(cache.path_for(damaged))
        assert cache.get(absent) is MISS
        assert cache.misses == 1
        assert cache.corrupt_evictions == 0
        assert cache.path_for(damaged).exists()
        assert not cache.quarantine_path_for(damaged).exists()
        assert cache.get(damaged) is MISS
        assert cache.corrupt_evictions == 1

    def test_put_survives_unwritable_root(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache dir should be")
        cache = RunCache(blocker, salt="s1")
        cache.put("ab" + "0" * 62, {"x": 1})  # must not raise
        assert cache.write_failures == 1
        assert cache.stores == 0
        # No entry can live under a file: a plain miss, not corruption.
        assert cache.get("ab" + "0" * 62) is MISS
        assert cache.corrupt_evictions == 0


class TestFramedBlobCorruption:
    """zlib/frame corruption quarantines like unpickling."""

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

    def test_damaged_numpy_entries_recompute_identically(self, tmp_path):
        """Numpy-heavy entries with their last byte flipped on disk are
        quarantined and recomputed to results identical to a clean run."""
        cells = [cell(NP_CELL, n=n) for n in (2, 3)]
        clean = Executor().run(cells)

        Executor(cache=make_cache(tmp_path)).run(cells)
        for path in entries(tmp_path / "cache"):
            flip_byte(path)
        cache = make_cache(tmp_path)
        executor = Executor(cache=cache)
        damaged = executor.run(cells)
        assert cache.corrupt_evictions == len(cells)
        assert executor.stats.computed == len(cells)
        for a, b in zip(clean, damaged):
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


def grid_plans():
    return [
        Plan([cell(MIX, a=a, b=b) for b in (2, 3, 5)],
             assemble=lambda rs: list(rs))
        for a in (1, 4, 9, 16)
    ]


def canonical(results) -> bytes:
    return json.dumps(results, sort_keys=True,
                      separators=(",", ":")).encode()


class TestDamagedGrid:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_damaged_entries_recompute_byte_identically(self, tmp_path, jobs):
        warm = tmp_path / "warm"
        clean = canonical(run_plans(
            grid_plans(), Executor(cache=RunCache(warm, salt="diff"))
        ))
        paths = entries(warm)
        assert len(paths) == 12

        # Flip one byte at a seeded position in a seeded subset of a
        # copy of the warm cache; the same seed damages the same entries
        # for both fan-out widths.
        damaged_dir = tmp_path / f"damaged-{jobs}"
        shutil.copytree(warm, damaged_dir)
        rng = np.random.default_rng(7)
        picks = sorted(rng.choice(len(paths), size=5, replace=False).tolist())
        for i in picks:
            path = damaged_dir / paths[i].relative_to(warm)
            flip_byte(path, int(rng.integers(0, path.stat().st_size)))

        cache = RunCache(damaged_dir, salt="diff")
        with Executor(jobs=jobs, cache=cache) as executor:
            assert canonical(run_plans(grid_plans(), executor)) == clean
        assert cache.corrupt_evictions == len(picks)
        assert executor.stats.computed == len(picks)
        assert executor.stats.cache_hits == len(paths) - len(picks)
        # The recomputed entries replaced the damaged ones.
        assert len(entries(damaged_dir)) == len(paths)


    def test_every_damaged_entry_quarantines_then_heals(self, tmp_path):
        cells = [cell(DOUBLE, x=x) for x in range(4)]
        Executor(cache=make_cache(tmp_path)).run(cells)
        for path in entries(tmp_path / "cache"):
            flip_byte(path)

        cache = make_cache(tmp_path)
        executor = Executor(cache=cache)
        assert executor.run(cells) == [0, 2, 4, 6]
        assert cache.corrupt_evictions == 4
        assert executor.stats.computed == 4
        for c in cells:
            assert cache.quarantine_path_for(c.key(cache.salt)).exists()
        # The recomputed values were stored again: the next run only hits.
        healed = Executor(cache=make_cache(tmp_path))
        assert healed.run(cells) == [0, 2, 4, 6]
        assert healed.stats.cache_hits == 4
        assert healed.stats.computed == 0

    def test_unwritable_root_drops_stores_but_not_results(self, tmp_path):
        # Through the pool, so the harvest-side store meets the failure.
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache dir should be")
        cache = RunCache(blocker, salt="s1")
        cells = [cell(DOUBLE, x=x) for x in range(3)]
        with Executor(jobs=2, cache=cache) as executor:
            assert executor.run(cells) == [0, 2, 4]
        assert executor.stats.pool_failures == 0
        assert cache.stores == 0
        assert cache.write_failures == 3
        # Nothing was cached, so a run on a writable root recomputes.
        blocker.unlink()
        clean = Executor(cache=make_cache(tmp_path))
        assert clean.run(cells[:1]) == [0]
        assert clean.stats.cache_hits == 0


#: The real-experiment grid: cheap at quick scale, many cells.
SUITE_GRID = ["fig9"]


def suite_grid(cache_root):
    """One pass of :data:`SUITE_GRID`: (canonical bytes, cache, stats)."""
    cache = RunCache(cache_root)
    with Executor(cache=cache) as executor:
        body, _ = run_suite_grid(SCALES["quick"], SUITE_GRID, executor)
    return body, cache, executor.stats


@pytest.fixture(scope="module")
def fig9_warm(tmp_path_factory):
    """A clean cold pass of the fig 9 grid and the cache it left."""
    cache_dir = tmp_path_factory.mktemp("fig9") / "cache"
    clean, _, _ = suite_grid(cache_dir)
    return cache_dir, clean


class TestSuiteGridUnderDamage:
    def test_every_entry_damaged_recomputes_identically(
            self, fig9_warm, tmp_path):
        cache_dir, clean = fig9_warm
        damaged = tmp_path / "damaged"
        shutil.copytree(cache_dir, damaged)
        for path in entries(damaged):
            flip_byte(path)
        body, cache, stats = suite_grid(damaged)
        assert body == clean
        assert cache.corrupt_evictions >= 1
        assert cache.hits == 0
        assert stats.computed >= 1

    def test_unwritable_root_recomputes_identically(self, fig9_warm,
                                                    tmp_path):
        _, clean = fig9_warm
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache dir should be")
        body, cache, stats = suite_grid(blocker)
        assert body == clean
        assert stats.computed >= 1
        assert cache.write_failures == stats.computed
        assert cache.stores == 0
        assert cache.corrupt_evictions == 0

    def test_copied_cache_dir_serves_every_cell(self, fig9_warm, tmp_path):
        # Sharing a cache is copying its directory: a copy of the warm
        # cache answers every cell of the grid with the same bytes.
        cache_dir, clean = fig9_warm
        copy = tmp_path / "copy"
        shutil.copytree(cache_dir, copy)
        body, cache, _ = suite_grid(copy)
        assert body == clean
        assert cache.misses == 0
        assert cache.hits > 0
