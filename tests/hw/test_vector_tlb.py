"""``vector_tlb.simulate_level`` against a per-access ``SetAssocTlb`` replay.

The kernel decides a whole set-associative LRU stream at once: it folds
same-set repeats, then separates cold keys, short reuse gaps and the
ambiguous windows, which it resolves by a lockstep scan (with a
per-window tail) or against per-block snapshots of the LRU stack.  Each
test replays the same stream access by access through
:class:`~repro.hw.tlb.SetAssocTlb` (lookup, then insert on a miss) and
compares the hit mask and every set's residents in LRU order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import vector_tlb as vt
from repro.hw.tlb import SetAssocTlb

GEOMETRIES = [(n_sets, ways) for n_sets in (1, 2, 4, 16) for ways in (1, 4, 6, 32)]
GEOMETRY_IDS = [f"{n}x{w}" for n, w in GEOMETRIES]


def replay(base, huge, n_sets, ways):
    """Per-access reference: hit mask and LRU→MRU resident codes."""
    tlb = SetAssocTlb(n_sets * ways, ways)
    hits = []
    for b, h in zip(base.tolist(), huge.tolist()):
        key = (b, bool(h))
        hit = tlb.lookup(key)
        if not hit:
            tlb.insert(key)
        hits.append(hit)
    residents = [[(b << 1) | int(h) for b, h in s] for s in tlb._sets]
    return np.asarray(hits, dtype=bool), residents


def simulate(base, huge, n_sets, ways):
    codes = (base << 1) | huge
    sets = vt.set_indices(vt.key_hashes(base, huge), n_sets)
    return vt.simulate_level(codes, sets, n_sets, ways)


def assert_matches(base, huge, n_sets, ways):
    hits, residents = simulate(base, huge, n_sets, ways)
    ref_hits, ref_residents = replay(base, huge, n_sets, ways)
    np.testing.assert_array_equal(hits, ref_hits)
    assert residents == ref_residents


@st.composite
def level_streams(draw):
    """Warm prefix, then pieces of same-key repeats, cold keys and
    draws from a small hot pool (so sets see reuse at every distance)."""
    pool = draw(st.integers(1, 80))
    keys = list(range(draw(st.integers(0, pool))))  # warm prefix
    cold = 1 << 20
    for kind, key, count in draw(st.lists(
        st.tuples(st.sampled_from("rcp"), st.integers(0, pool - 1),
                  st.integers(1, 12)),
        max_size=60,
    )):
        if kind == "r":
            keys += [key] * count
        elif kind == "c":
            keys += range(cold, cold + count)
            cold += count
        else:
            keys += [(key * 7 + i * 3) % pool for i in range(count)]
    base = np.asarray(keys, dtype=np.int64) * 512
    huge = (np.asarray(keys, dtype=np.int64) % 3 == 0).astype(np.int64)
    return base, huge


@pytest.mark.parametrize(("n_sets", "ways"), GEOMETRIES, ids=GEOMETRY_IDS)
@settings(max_examples=40, deadline=None)
@given(stream=level_streams())
def test_hypothesis_streams(n_sets, ways, stream):
    assert_matches(*stream, n_sets, ways)


def test_empty_stream():
    hits, residents = vt.simulate_level(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32), 4, 2
    )
    assert hits.size == 0 and residents == [[]] * 4


def long_stream(n_sets, ways, n=6000, seed=0):
    """Hot keys in bursts over a churning pool a few times the capacity:
    hundreds of ambiguous windows, short and block-spanning."""
    rng = np.random.default_rng(seed + 97 * n_sets + ways)
    pool = 3 * n_sets * ways + 5
    keys = []
    while len(keys) < n:
        key = int(rng.integers(0, pool)) if rng.random() < 0.7 else int(
            rng.integers(0, 4 * pool)
        )
        keys += [key] * int(rng.integers(1, 4))
    keys = np.asarray(keys[:n], dtype=np.int64)
    return keys * 512, (keys & 1).astype(np.int64)


@pytest.mark.parametrize("block", [None, 64, 8], ids=["block-default", "block-64", "block-8"])
@pytest.mark.parametrize(("n_sets", "ways"), GEOMETRIES, ids=GEOMETRY_IDS)
def test_long_streams_take_every_path(n_sets, ways, block, monkeypatch):
    """Enough ambiguous windows that the lockstep rounds, the per-window
    tail and the block snapshots all decide some; small blocks and
    chunks also chain snapshots across many blocks and split the
    snapshot test into several chunks."""
    if block is not None:
        monkeypatch.setattr(vt, "_BLOCK", block)
        monkeypatch.setattr(vt, "_CHUNK", 64)
    seen = {"scan": 0, "snapshot": 0}

    def counted(name, fn):
        def wrapped(i_arr, *args):
            seen[name] = max(seen[name], i_arr.size)
            return fn(i_arr, *args)
        return wrapped

    monkeypatch.setattr(vt, "_scan_hits", counted("scan", vt._scan_hits))
    monkeypatch.setattr(
        vt, "_snapshot_hits", counted("snapshot", vt._snapshot_hits)
    )
    assert_matches(*long_stream(n_sets, ways), n_sets, ways)
    assert seen["snapshot"] > 0
    if block is None:
        assert seen["scan"] > vt._SCAN_TAIL
