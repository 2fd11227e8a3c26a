"""The RPT1 transport's contract: canonical frames, exact round-trips,
delta refs, and every-byte corruption coverage.

The run cache, the chain checkpoints and the executor's pool path all
ride this format, so these tests pin the properties those layers
assume:

- *round-trip* — ``loads(dumps(x)) == x`` over arbitrary dtypes,
  shapes (empty and 1-element columns included), and mixed payloads,
  with every reconstructed array writable;
- *canonical* — equal content yields byte-equal blobs (the property
  delta detection is built on);
- *delta* — a delta blob resolves through its store to the same object
  and carries the same logical digest as the full framing;
- *corruption* — flipping ANY single byte of a blob raises
  :class:`TransportError` (the chaos quarantine contract).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sim import transport

DTYPES = (
    np.uint8, np.int16, np.uint32, np.int64, np.float32, np.float64,
    np.bool_,
)


def _arrays():
    return hnp.arrays(
        dtype=st.sampled_from(DTYPES),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                               max_side=64),
        elements=st.integers(min_value=0, max_value=1),
    )


def _assert_equal(a, b):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)
    else:
        assert a == b


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_arrays(), min_size=0, max_size=4))
    def test_arrays_round_trip(self, arrays):
        obj = {"cols": arrays, "tag": "x"}
        out = transport.loads(transport.dumps(obj))
        assert out["tag"] == "x"
        assert len(out["cols"]) == len(arrays)
        for a, b in zip(arrays, out["cols"]):
            _assert_equal(a, b)
            assert b.flags.writeable

    @pytest.mark.parametrize("arr", [
        np.array([], dtype=np.float64),
        np.array([7], dtype=np.uint8),
        np.zeros(100_000, dtype=np.uint64),
        np.arange(50_000, dtype=np.int32),
        np.full(9_999, np.nan),
        np.random.default_rng(7).integers(0, 256, 300_000).astype(np.uint8),
    ])
    def test_edge_columns(self, arr):
        out = transport.loads(transport.dumps({"a": arr}))["a"]
        _assert_equal(arr, out)
        assert out.flags.writeable
        out[...] = 0  # mutable in place, like a resumed VM column

    def test_plain_objects_round_trip(self):
        obj = {"n": 3, "s": "text", "b": b"\x00" * 4096, "t": (1, 2)}
        assert transport.loads(transport.dumps(obj)) == obj

    def test_non_contiguous_arrays_survive_inband(self):
        base = np.arange(10_000, dtype=np.int64)
        view = base[::2]
        out = transport.loads(transport.dumps({"v": view}))["v"]
        _assert_equal(np.ascontiguousarray(view), out)

    def test_dumps_is_canonical(self):
        obj = {"a": np.zeros(100_000, dtype=np.uint64), "b": list(range(50))}
        assert transport.dumps(obj) == transport.dumps(obj)

    def test_incompressible_buffers_stay_raw(self):
        noise = np.random.default_rng(0).integers(
            0, 2**64, 200_000, dtype=np.uint64
        )
        blob = transport.dumps({"noise": noise})
        info = transport.blob_info(blob)
        assert info["codec_frames"].get("raw", 0) >= 1
        # No compression attempt means no size blow-up either.
        assert len(blob) < noise.nbytes * 1.01 + 4096

    def test_runs_compress_hard(self):
        runs = np.repeat(
            np.arange(40, dtype=np.uint64), 25_000
        )  # 8 MB, 40 runs
        blob = transport.dumps({"runs": runs})
        assert len(blob) < runs.nbytes / 100
        _assert_equal(runs, transport.loads(blob)["runs"])


class TestDelta:
    def _obj(self):
        rng = np.random.default_rng(1)
        return {
            "stable": np.repeat(np.arange(32, dtype=np.uint64), 8_192),
            "noise": rng.integers(0, 2**64, 65_536, dtype=np.uint64),
            "hot": np.zeros(262_144, dtype=np.uint8),
        }

    def test_unchanged_buffers_become_refs(self):
        obj = self._obj()
        store = transport.BufferStore()
        base = store.add_blob(transport.dumps(obj))
        obj["hot"] = obj["hot"].copy()
        obj["hot"][123] = 9
        delta = transport.dumps(obj, store=store, base=base)
        info = transport.blob_info(delta)
        assert info["ref_frames"] >= 2  # stable + noise unchanged
        assert len(delta) < len(transport.dumps(obj))

    def test_delta_digest_and_loads_match_full(self):
        obj = self._obj()
        store = transport.BufferStore()
        base = store.add_blob(transport.dumps(obj))
        obj["hot"] = obj["hot"].copy()
        obj["hot"][0] = 1
        delta = transport.dumps(obj, store=store, base=base)
        full = transport.dumps(obj)
        assert transport.blob_digest(delta) == transport.blob_digest(full)
        store.add_blob(delta)
        out_d = transport.loads(delta, store=store)
        out_f = transport.loads(full)
        for k in obj:
            _assert_equal(out_d[k], out_f[k])
            assert out_d[k].flags.writeable

    def test_ref_chains_flatten_to_the_terminal_blob(self):
        obj = self._obj()
        store = transport.BufferStore()
        prev = store.add_blob(transport.dumps(obj))
        # Five generations of deltas; "stable" never changes.
        for gen in range(5):
            obj["hot"] = obj["hot"].copy()
            obj["hot"][gen] = gen + 1
            blob = transport.dumps(obj, store=store, base=prev)
            prev = store.add_blob(blob)
        out = transport.loads(blob, store=store)
        _assert_equal(out["stable"], self._obj()["stable"])
        # Later deltas stay ref-only for the unchanged columns: the
        # chain's tail blobs are all tiny.
        assert len(blob) < 16 * 1024

    def test_loading_a_delta_without_its_store_fails(self):
        obj = self._obj()
        store = transport.BufferStore()
        base = store.add_blob(transport.dumps(obj))
        delta = transport.dumps(obj, store=store, base=base)
        with pytest.raises(transport.TransportError):
            transport.loads(delta)

    def test_identical_consecutive_states_stay_resolvable(self):
        # An unchanged stage deltas to an all-refs blob whose logical
        # digest EQUALS the base's; registering it must not shadow the
        # base's resolvable frames in the store.
        obj = self._obj()
        store = transport.BufferStore()
        base = store.add_blob(transport.dumps(obj))
        delta = transport.dumps(obj, store=store, base=base)
        assert transport.blob_digest(delta) == base
        same = store.add_blob(delta)
        assert same == base
        out = transport.loads(delta, store=store)
        for k in obj:
            _assert_equal(out[k], obj[k])
        # And a further delta against the all-refs generation still
        # resolves (refs flattened through to the original frames).
        again = transport.dumps(obj, store=store, base=same)
        store.add_blob(again)
        out2 = transport.loads(again, store=store)
        for k in obj:
            _assert_equal(out2[k], obj[k])

    def test_dumps_against_unknown_base_fails(self):
        with pytest.raises(transport.TransportError):
            transport.dumps({"x": 1}, store=transport.BufferStore(),
                            base="ab" * 32)


class TestCorruption:
    def test_every_single_byte_flip_is_detected(self):
        obj = {
            "a": np.arange(300, dtype=np.uint32),
            "b": np.zeros(2_000, dtype=np.uint8),
            "c": b"xyz" * 60,
        }
        blob = transport.dumps(obj)
        for i in range(len(blob)):
            bad = bytearray(blob)
            bad[i] ^= 0xFF
            with pytest.raises(transport.TransportError):
                transport.loads(bytes(bad))

    def test_truncation_is_detected(self):
        blob = transport.dumps({"a": np.arange(1_000)})
        for cut in (0, 3, 47, 48, len(blob) // 2, len(blob) - 1):
            with pytest.raises(transport.TransportError):
                transport.loads(blob[:cut])

    def test_raw_pickle_is_not_framed(self):
        raw = pickle.dumps({"x": 1}, protocol=pickle.HIGHEST_PROTOCOL)
        assert not transport.is_framed(raw)
        with pytest.raises(transport.TransportError):
            transport.loads(raw)


class TestIntrospection:
    def test_blob_info_shape(self):
        blob = transport.dumps({"a": np.zeros(100_000, dtype=np.uint64)})
        info = transport.blob_info(blob)
        assert info["version"] == transport.VERSION
        assert info["logical_bytes"] > 800_000
        assert info["stored_bytes"] == len(blob)
        assert info["digest"] == transport.blob_digest(blob)

    def test_peek_logical_bytes(self):
        blob = transport.dumps({"a": np.zeros(4_096, dtype=np.uint8)})
        assert transport.peek_logical_bytes(blob[:48]) == (
            transport.blob_info(blob)["logical_bytes"]
        )
        assert transport.peek_logical_bytes(b"\x80\x04junk" * 10) is None
        assert transport.peek_logical_bytes(b"RPT") is None
