"""The scheme-conformance battery.

One parametrized suite drives every machine in the
:mod:`tests.hw.conformance` registry — SpOT, vRMM, DS, the walk
simulator, the TLB hierarchy, cTLB, Utopia, segmentation and vHC —
through the same checks:

- scalar-vs-batched **bit identity** on outcome counts *and* full end
  state (residency, LRU/dict insertion orders, per-entry payloads,
  stats) over cold, warm-chunked, adversarial and thrashing streams;
- an empty batch is a strict no-op;
- hypothesis-generated traces (well-formed and invariant-violating);
- a pickle round-trip of mid-stream state continues identically.

Machines without a batched form (vHC) run scalar-vs-scalar, which pins
determinism and pickle fidelity under the identical battery.
"""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.hw.conformance import (
    FAMILY_STRATEGIES,
    SCHEME_IDS,
    SCHEMES,
    stream_slice,
)


def stream_seed(spec):
    """A per-scheme seed that is the same in every process
    (``hash(str)`` follows ``PYTHONHASHSEED``)."""
    return zlib.crc32(spec.name.encode())


def drive(spec, ref, vec, stream):
    """Feed both machines one stream; assert counts and state agree."""
    expected = spec.scalar(ref, stream)
    got = (spec.batch or spec.scalar)(vec, stream)
    assert got == expected
    assert spec.state(vec) == spec.state(ref)


@pytest.mark.parametrize("spec", SCHEMES, ids=SCHEME_IDS)
class TestConformance:
    def test_empty_stream_is_a_noop(self, spec):
        ref, vec = spec.factory(), spec.factory()
        before = spec.state(vec)
        drive(spec, ref, vec, spec.stream(np.random.default_rng(0), 0))
        assert spec.state(vec) == before

    def test_cold_random_streams(self, spec):
        for trial in range(4):
            rng = np.random.default_rng(stream_seed(spec) + trial)
            drive(spec, spec.factory(), spec.factory(),
                  spec.stream(rng, 800))

    def test_warm_chunked_streams(self, spec):
        """Repeat calls on live machines: warm state must carry over."""
        rng = np.random.default_rng(stream_seed(spec) + 99)
        ref, vec = spec.factory(), spec.factory()
        for _ in range(4):
            drive(spec, ref, vec, spec.stream(rng, 400))

    def test_adversarial_streams(self, spec):
        """Invariant-violating inputs must route to the scalar loop."""
        if spec.adversarial is None:
            pytest.skip(f"every input is valid for {spec.name}")
        rng = np.random.default_rng(13)
        for _ in range(6):
            drive(spec, spec.factory(), spec.factory(),
                  spec.adversarial(rng, 300))

    def test_thrash_stream(self, spec):
        """Worst-case conflict/flip pressure on one deterministic stream."""
        drive(spec, spec.factory(), spec.factory(), spec.thrash())

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_fuzzed_traces(self, spec, data):
        stream = data.draw(FAMILY_STRATEGIES[spec.family]())
        drive(spec, spec.factory(), spec.factory(), stream)

    def test_pickle_roundtrip_mid_stream(self, spec):
        """Snapshot a warm machine; the clone must continue identically
        (and, for batched machines, continue identically *batched*)."""
        rng = np.random.default_rng(stream_seed(spec) + 7)
        ref = spec.factory()
        stream = spec.stream(rng, 600)
        first = stream_slice(stream, 0, 300)
        second = stream_slice(stream, 300, 600)
        spec.scalar(ref, first)
        clone = pickle.loads(pickle.dumps(ref))
        assert spec.state(clone) == spec.state(ref)
        drive(spec, ref, clone, second)
