"""Scheme-conformance registry: every walk-path machine, one battery.

Each scheme machine in ``repro.hw`` claims the same contract — a
per-event scalar reference and (for all but vHC) a batched form that is
*bit-identical* on counters and end state.  Before this registry every
machine carried its own copy-pasted differential test with its own
stream helpers; now an adapter (:class:`SchemeSpec`) describes how to
build a machine, feed it scalar or batched, and observe everything
(stats, residency, LRU/dict insertion orders), and one parametrized
battery (``test_conformance.py``) runs every registered geometry
through shared empty/cold/warm/adversarial/thrashing streams,
hypothesis trace fuzzing and mid-stream pickle round-trips.

Stream *families* group machines by input shape:

- ``run``  — ``(vpns, run_starts, run_lens)`` miss streams obeying the
  ResolvedTrace invariants (disjoint runs, access inside its own run):
  vRMM, cTLB, Utopia, segmentation, vHC.  Adversarial variants violate
  every invariant at once and must fall back identically.
- ``spot`` — ``(pcs, vpns, ppns, contigs)`` completed-walk streams.
- ``tlb``  — ``(keys, huge)`` access streams: the TLB hierarchy.
- ``ds``   — ``(in_segment_mask,)``.

The state observers double as the shared vocabulary for the end-to-end
MmuSimulator tests (:func:`mmu_state`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from hypothesis import strategies as st

from repro.hw.coalesced_tlb import CoalescedTlb
from repro.hw.direct_segment import DirectSegment
from repro.hw.rmm import RANGE_FILL, RANGE_HIT, UNCOVERED, RangeTlb
from repro.hw.segmentation import FILL, GROW, INSIDE, OUTSIDE, SegmentationUnit
from repro.hw.spot import CORRECT, MISPREDICT, NO_PREDICTION, SpotPredictor
from repro.hw.tlb import SetAssocTlb, TlbHierarchy
from repro.hw.utopia import REST_HIT, UtopiaMapper
from repro.hw.vhc import VhcTlb

Stream = tuple  # tuple of equal-length numpy arrays


def stream_slice(stream: Stream, lo: int, hi: int) -> Stream:
    return tuple(a[lo:hi] for a in stream)


# -- state observers (full observability: counters + orders) ------------------


def spot_state(p: SpotPredictor):
    return (
        [[(pc, e.offset, e.confidence) for pc, e in s.items()] for s in p._sets],
        vars(p.stats).copy(),
    )


def rmm_state(t: RangeTlb):
    return (list(t._ranges.items()), vars(t.stats).copy())


def ds_state(d: DirectSegment):
    return vars(d.stats).copy()


def hier_state(h: TlbHierarchy):
    return [
        ((t.hits, t.misses), [list(s) for s in t._sets])
        for t in (h.l1_4k, h.l1_2m, h.l2)
    ]


def ctlb_state(c: CoalescedTlb):
    return ([list(s.items()) for s in c._sets], vars(c.stats).copy())


def utopia_state(u: UtopiaMapper):
    return (
        list(u._promoted.items()),
        list(u._miss_counts.items()),
        u.free_pages,
        vars(u.stats).copy(),
    )


def seg_state(s: SegmentationUnit):
    return (
        [list(seg) for seg in s._segments],
        list(s._assigned.items()),
        list(s._rejected),
        vars(s.stats).copy(),
    )


def mmu_state(sim):
    """End state of an :class:`~repro.hw.mmu_sim.MmuSimulator`: the TLB
    hierarchy and every scheme machine, orders included."""
    return (
        hier_state(sim.tlb),
        spot_state(sim.spot),
        rmm_state(sim.rmm),
        ds_state(sim.ds),
        ctlb_state(sim.ctlb),
        utopia_state(sim.utopia),
        seg_state(sim.seg),
    )


def vhc_state(v: VhcTlb):
    return (
        [list(s) for s in v._tlb._sets],
        dict(v._coverage),
        vars(v.stats).copy(),
    )


# -- stream generators, per family --------------------------------------------


def run_stream(rng, n, n_runs=50, max_len=200):
    """Well-formed disjoint runs (the ResolvedTrace invariants)."""
    runs = []
    cur = 0
    for _ in range(max(1, n_runs)):
        cur += int(rng.integers(1, 64))
        ln = int(rng.integers(1, max_len))  # straddles rangeability
        runs.append((cur, ln))
        cur += ln
    idx = rng.integers(0, len(runs), n)
    starts = np.asarray([runs[i][0] for i in idx], dtype=np.int64)
    lens = np.asarray([runs[i][1] for i in idx], dtype=np.int64)
    vpns = starts + (rng.random(n) * lens).astype(np.int64)
    return vpns, starts, lens


def adversarial_run_stream(rng, n):
    """Random garbage: vpns outside runs, inconsistent lengths,
    overlapping runs — everything the run-table validator must reject."""
    vpns = rng.integers(0, 500, n).astype(np.int64)
    starts = rng.integers(0, 500, n).astype(np.int64)
    lens = rng.integers(0, 100, n).astype(np.int64)
    return vpns, starts, lens


def thrash_run_stream():
    """Conflict pressure: a dozen disjoint runs (long/short alternating)
    cycled round-robin, then a two-run ping-pong tail — every access
    lands on a machine whose capacity the working set exceeds."""
    runs = [(k * 1000 + 7, 48 if k % 2 else 8) for k in range(12)]
    vpns, starts, lens = [], [], []
    for i in range(900):
        s, ln = runs[i % len(runs)]
        vpns.append(s + (i * 7) % ln)
        starts.append(s)
        lens.append(ln)
    for i in range(300):
        s, ln = runs[i % 2]
        vpns.append(s + i % ln)
        starts.append(s)
        lens.append(ln)
    return (
        np.asarray(vpns, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(lens, dtype=np.int64),
    )


def spot_stream(rng, n, n_pcs=10, n_offsets=3, contig_p=0.7, sticky=0.8):
    """A miss stream with PC reuse and sticky-but-flipping offsets.

    Stickiness creates the match/mismatch runs the confidence closed
    forms collapse; the contig probability interleaves bypass segments.
    """
    pcs = rng.integers(0, n_pcs, n).astype(np.int64) * 4 + 0x400000
    offset_pool = (np.arange(n_offsets, dtype=np.int64) + 1) * 512
    choice = rng.integers(0, n_offsets, n)
    keep = rng.random(n) < sticky
    last = {}
    offs = np.empty(n, dtype=np.int64)
    for i in range(n):
        pc = int(pcs[i])
        if keep[i] and pc in last:
            offs[i] = last[pc]
        else:
            offs[i] = offset_pool[choice[i]]
            last[pc] = offs[i]
    vpns = rng.integers(0, 2**20, n).astype(np.int64)
    ppns = vpns - offs
    contigs = rng.random(n) < contig_p
    return pcs, vpns, ppns, contigs


def thrash_spot_stream():
    """One PC, offsets flipping in short runs, contig bit toggling: every
    eviction, bypassed miss, confidence drain and offset flip lands on
    the same table entry."""
    pcs, vpns, ppns, contigs = [], [], [], []
    vpn = 0
    for block in range(120):
        offset = 512 if block % 3 else 1024
        for _ in range(1 + block % 4):
            pcs.append(0x400010)
            vpns.append(vpn)
            ppns.append(vpn - offset)
            contigs.append(block % 5 != 0)
            vpn += 1
    return (
        np.asarray(pcs, dtype=np.int64),
        np.asarray(vpns, dtype=np.int64),
        np.asarray(ppns, dtype=np.int64),
        np.asarray(contigs, dtype=bool),
    )


def episode_spot_stream(n=24_000, seed=11):
    """Two PCs, ``n`` contig walks: each PC's entry stays resident, so
    its one residency episode spans thousands of offset runs — many
    chunks of the batched confidence automaton.

    Each PC inserts at offset ``a`` and its first hit run repeats ``a``.
    Then come stretches of alternating ``a``/``b`` runs (single ``b``
    runs leave the cached offset in place), runs of length 1–6 over a
    few offsets, and all-distinct stretches.
    """
    rng = np.random.default_rng(seed)
    a, b = 512, 1024
    fresh = 4096
    per_pc = []
    for _ in range(2):
        offs = [a] * int(rng.integers(2, 9))
        while len(offs) < n // 2:
            kind = int(rng.integers(0, 3))
            if kind == 0:
                # Once confidence saturates on `a`, single `b` runs
                # cannot flip it, while a low-confidence entry flips on
                # every run: hundreds of runs whose state depends on
                # how the stretch was entered.
                offs += [a] * int(rng.integers(5, 9))
                offs += [a, b] * int(rng.integers(100, 400))
            elif kind == 1:
                for _ in range(int(rng.integers(2, 40))):
                    offs += [int(rng.choice([a, b, 1536]))] * int(rng.integers(1, 7))
            else:
                count = int(rng.integers(1, 30))
                offs += range(fresh, fresh + count)
                fresh += count
        per_pc.append(offs[:n // 2])
    # Interleave the two PCs, each in its own order.
    first = rng.permutation(np.arange(n) < n // 2)
    pcs = np.where(first, 0x400010, 0x400024).astype(np.int64)
    offsets = np.empty(n, dtype=np.int64)
    offsets[first] = per_pc[0]
    offsets[~first] = per_pc[1]
    vpns = np.arange(n, dtype=np.int64) * 3 + (1 << 20)
    return pcs, vpns, vpns - offsets, np.ones(n, dtype=bool)


def tlb_stream(rng, n, universe=600, huge_frac=0.5):
    keys = rng.integers(0, universe, n).astype(np.int64)
    huge = np.asarray(rng.random(n) < huge_frac, dtype=bool)
    return keys, huge


def thrash_tlb_stream():
    """Bursty repeats over a tiny universe plus a ping-pong tail."""
    rng = np.random.default_rng(5)
    keys, huge = [], []
    for _ in range(300):
        b = int(rng.integers(0, 30))
        for _ in range(int(rng.integers(1, 12))):
            keys.append(b)
            huge.append(True)
    keys += [0, 1] * 500
    huge += [True, False] * 500
    return np.asarray(keys, dtype=np.int64), np.asarray(huge, dtype=bool)


def ds_stream(rng, n, inside_p=0.8):
    return (np.asarray(rng.random(n) < inside_p, dtype=bool),)


def thrash_ds_stream():
    return (np.asarray([True, False] * 600, dtype=bool),)


# -- hypothesis strategies, per family ----------------------------------------


@st.composite
def run_traces(draw):
    """Well-formed run streams (disjoint runs, vpn inside its run)."""
    n_runs = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.integers(1, 50), min_size=n_runs, max_size=n_runs))
    lens = draw(st.lists(st.integers(1, 80), min_size=n_runs, max_size=n_runs))
    runs = []
    cur = 0
    for g, ln in zip(gaps, lens):
        cur += g
        runs.append((cur, ln))
        cur += ln
    events = draw(st.lists(
        st.tuples(st.integers(0, n_runs - 1), st.integers(0, 10**6)),
        max_size=120,
    ))
    starts = np.asarray([runs[i][0] for i, _ in events], dtype=np.int64)
    lns = np.asarray([runs[i][1] for i, _ in events], dtype=np.int64)
    vpns = np.asarray(
        [runs[i][0] + o % runs[i][1] for i, o in events], dtype=np.int64
    )
    return vpns, starts, lns


@st.composite
def raw_run_traces(draw):
    """Arbitrary (possibly invariant-violating) run streams."""
    events = draw(st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300),
                  st.integers(-5, 100)),
        max_size=80,
    ))
    return (
        np.asarray([e[0] for e in events], dtype=np.int64),
        np.asarray([e[1] for e in events], dtype=np.int64),
        np.asarray([e[2] for e in events], dtype=np.int64),
    )


@st.composite
def spot_traces(draw):
    events = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 2), st.booleans()),
        max_size=120,
    ))
    pcs = np.asarray([0x400000 + p * 4 for p, _, _ in events], dtype=np.int64)
    vpns = np.arange(len(events), dtype=np.int64) * 3
    offs = np.asarray([(o + 1) * 512 for _, o, _ in events], dtype=np.int64)
    contigs = np.asarray([c for _, _, c in events], dtype=bool)
    return pcs, vpns, vpns - offs, contigs


@st.composite
def tlb_traces(draw):
    events = draw(st.lists(
        st.tuples(st.integers(0, 40), st.booleans()), max_size=120,
    ))
    keys = np.asarray([k for k, _ in events], dtype=np.int64)
    huge = np.asarray([h for _, h in events], dtype=bool)
    return keys, huge


@st.composite
def ds_traces(draw):
    mask = draw(st.lists(st.booleans(), max_size=120))
    return (np.asarray(mask, dtype=bool),)


FAMILY_STRATEGIES = {
    "run": lambda: st.one_of(run_traces(), raw_run_traces()),
    "spot": spot_traces,
    "tlb": tlb_traces,
    "ds": ds_traces,
}


# -- feeds: scalar reference loop vs batched call -----------------------------


def _run_events(stream):
    return zip(*(a.tolist() for a in stream))


def spot_scalar(p, stream):
    counts = {CORRECT: 0, MISPREDICT: 0, NO_PREDICTION: 0}
    for pc, v, pp, cb in _run_events(stream):
        counts[p.on_walk_complete(pc, v, pp, bool(cb))] += 1
    return (counts[CORRECT], counts[MISPREDICT], counts[NO_PREDICTION])


def spot_batch(p, stream):
    return p.on_walks_batch(*stream)


def rmm_scalar(t, stream):
    counts = {RANGE_HIT: 0, RANGE_FILL: 0, UNCOVERED: 0}
    for v, s, ln in _run_events(stream):
        counts[t.on_miss(v, s, ln)] += 1
    return (counts[RANGE_HIT], counts[RANGE_FILL], counts[UNCOVERED])


def rmm_batch(t, stream):
    return t.on_miss_batch(*stream)


def ds_scalar(d, stream):
    (mask,) = stream
    return (sum(0 if d.on_miss(bool(b)) else 1 for b in mask.tolist()),)


def ds_batch(d, stream):
    return (d.on_miss_batch(stream[0]),)


_HIER_LEVELS = {"l1": 0, "l2": 1, "miss": 2}


def hier_scalar(h, stream):
    return [_HIER_LEVELS[h.access(k, bool(hg))] for k, hg in _run_events(stream)]


def hier_batch(h, stream):
    return h.simulate(*stream).tolist()


def ctlb_scalar(c, stream):
    covered = 0
    for v, s, ln in _run_events(stream):
        covered += c.on_miss(v, s, ln)
    return (covered, len(stream[0]) - covered)


def ctlb_batch(c, stream):
    return c.on_miss_batch(*stream)


def utopia_scalar(u, stream):
    rest = 0
    for v, s, ln in _run_events(stream):
        rest += u.on_miss(v, s, ln) == REST_HIT
    return (rest, len(stream[0]) - rest)


def utopia_batch(u, stream):
    return u.on_miss_batch(*stream)


def seg_scalar(sg, stream):
    counts = {INSIDE: 0, GROW: 0, FILL: 0, OUTSIDE: 0}
    for v, s, ln in _run_events(stream):
        counts[sg.on_miss(v, s, ln)] += 1
    return (counts[INSIDE], counts[GROW], counts[FILL], counts[OUTSIDE])


def seg_batch(sg, stream):
    return sg.on_miss_batch(*stream)


def vhc_scalar(v, stream):
    hits = 0
    for vpn, s, ln in _run_events(stream):
        hits += v.access(vpn, s, ln)
    return (hits, len(stream[0]) - hits)


# -- the registry --------------------------------------------------------------


@dataclass(frozen=True)
class SchemeSpec:
    """One machine geometry under the conformance battery."""

    name: str
    family: str  # stream shape: "run" | "spot" | "tlb" | "ds"
    factory: Callable[[], object]
    scalar: Callable[[object, Stream], object]
    #: Batched feed; None for scalar-only machines (vHC), which the
    #: battery then checks for determinism and pickle fidelity only.
    batch: Optional[Callable[[object, Stream], object]]
    state: Callable[[object], object]
    stream: Callable[[np.random.Generator, int], Stream]
    #: Invariant-violating generator; None when every input is valid.
    adversarial: Optional[Callable[[np.random.Generator, int], Stream]] = None
    thrash: Optional[Callable[[], Stream]] = None
    #: Long deterministic stream whose residency episodes cross many
    #: chunks of a batched stage; None when the machine has none.
    episodes: Optional[Callable[[], Stream]] = None


def _run_spec(name, factory, scalar, batch, state):
    return SchemeSpec(
        name, "run", factory, scalar, batch, state,
        run_stream, adversarial_run_stream, thrash_run_stream,
    )


SCHEMES = [
    # SpOT across the geometry space: default, non-power-of-two set
    # count (exact set-index fallback), fully associative, no-confidence.
    SchemeSpec("spot-32x4", "spot", lambda: SpotPredictor(32, 4),
               spot_scalar, spot_batch, spot_state,
               spot_stream, None, thrash_spot_stream, episode_spot_stream),
    SchemeSpec("spot-24x4", "spot", lambda: SpotPredictor(24, 4),
               spot_scalar, spot_batch, spot_state,
               spot_stream, None, thrash_spot_stream),
    SchemeSpec("spot-8x8-noconf", "spot",
               lambda: SpotPredictor(8, 8, use_confidence=False),
               spot_scalar, spot_batch, spot_state,
               spot_stream, None, thrash_spot_stream, episode_spot_stream),
    _run_spec("rmm-16", lambda: RangeTlb(16),
              rmm_scalar, rmm_batch, rmm_state),
    _run_spec("rmm-4", lambda: RangeTlb(4),
              rmm_scalar, rmm_batch, rmm_state),
    SchemeSpec("ds", "ds", DirectSegment,
               ds_scalar, ds_batch, ds_state,
               ds_stream, None, thrash_ds_stream),
    SchemeSpec("hier-default", "tlb",
               lambda: TlbHierarchy(SetAssocTlb(64, 4), SetAssocTlb(32, 4),
                                    SetAssocTlb(1536, 6)),
               hier_scalar, hier_batch, hier_state,
               tlb_stream, None, thrash_tlb_stream),
    SchemeSpec("hier-np2", "tlb",
               lambda: TlbHierarchy(SetAssocTlb(12, 4), SetAssocTlb(12, 4),
                                    SetAssocTlb(24, 3)),
               hier_scalar, hier_batch, hier_state,
               tlb_stream, None, thrash_tlb_stream),
    _run_spec("ctlb-64x4", lambda: CoalescedTlb(64, 4, span_pages=16),
              ctlb_scalar, ctlb_batch, ctlb_state),
    _run_spec("ctlb-24x4-span8", lambda: CoalescedTlb(24, 4, span_pages=8),
              ctlb_scalar, ctlb_batch, ctlb_state),
    _run_spec("utopia", lambda: UtopiaMapper(),
              utopia_scalar, utopia_batch, utopia_state),
    _run_spec("utopia-tight",
              lambda: UtopiaMapper(restseg_pages=256, promote_after=2),
              utopia_scalar, utopia_batch, utopia_state),
    _run_spec("seg-16", lambda: SegmentationUnit(16),
              seg_scalar, seg_batch, seg_state),
    _run_spec("seg-2", lambda: SegmentationUnit(2),
              seg_scalar, seg_batch, seg_state),
    _run_spec("vhc", lambda: VhcTlb(entries=24, ways=4, distance=64),
              vhc_scalar, None, vhc_state),
]

SCHEME_IDS = [s.name for s in SCHEMES]
