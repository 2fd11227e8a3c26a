"""SpOT: Speculative Offset-based Address Translation (paper §IV).

A PC-indexed, set-associative prediction table on the last-level TLB
miss path.  Each entry caches the [offset, permissions] of the last
walk completed by the same instruction plus a 2-bit saturating
confidence counter:

- a prediction is *fed to the pipeline* only when confidence > 1;
- every completed walk compares the entry's offset against the actual
  one and bumps the counter up (match) or down (mismatch);
- the cached offset is replaced only when confidence reaches 0
  (then reset to 1);
- new entries are inserted only when the OS contiguity bit is set in
  both dimensions (the thrash filter of §IV-C), evicting LRU.

Outcomes per miss: ``correct`` (walk latency hidden), ``mispredict``
(walk latency + pipeline flush) or ``no_prediction`` (full walk cost).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Saturating-counter ceiling (2-bit).
CONF_MAX = 3
#: Confidence required before predictions are fed to the pipeline.
CONF_FEED = 2

CORRECT = "correct"
MISPREDICT = "mispredict"
NO_PREDICTION = "no_prediction"


class _Entry:
    __slots__ = ("pc", "offset", "confidence")

    def __init__(self, pc: int, offset: int):
        self.pc = pc
        self.offset = offset
        self.confidence = 1


@dataclass
class SpotStats:
    """Prediction outcome counters (Fig. 14)."""

    correct: int = 0
    mispredict: int = 0
    no_prediction: int = 0
    fills: int = 0

    @property
    def total(self) -> int:
        return self.correct + self.mispredict + self.no_prediction

    def breakdown(self) -> dict[str, float]:
        """Outcome fractions of all last-level TLB misses."""
        total = max(1, self.total)
        return {
            CORRECT: self.correct / total,
            MISPREDICT: self.mispredict / total,
            NO_PREDICTION: self.no_prediction / total,
        }


class SpotPredictor:
    """The prediction table + confidence mechanism."""

    def __init__(self, entries: int = 32, ways: int = 4,
                 use_confidence: bool = True):
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ConfigError(
                f"invalid SpOT geometry: {entries} entries, {ways} ways"
            )
        self.n_sets = entries // ways
        self.ways = ways
        #: Ablation: with confidence off, every resident entry predicts
        #: immediately and mismatches replace the offset at once.
        self.use_confidence = use_confidence
        self._sets: list[dict[int, _Entry]] = [dict() for _ in range(self.n_sets)]
        self.stats = SpotStats()

    def _set_of(self, pc: int) -> dict[int, _Entry]:
        # Mix the PC before picking a set: instruction addresses
        # cluster at small strides, so plain modulo would alias hot PCs
        # into one set (Knuth multiplicative hash).
        return self._sets[((pc * 0x9E3779B1) >> 12) % self.n_sets]

    def lookup(self, pc: int) -> _Entry | None:
        """Probe the table (refreshes LRU position)."""
        s = self._set_of(pc)
        entry = s.get(pc)
        if entry is not None:
            del s[pc]
            s[pc] = entry
        return entry

    def predict(self, pc: int, vpn: int) -> int | None:
        """Predicted physical page for ``vpn``, or None (not confident)."""
        entry = self.lookup(pc)
        if entry is None:
            return None
        if self.use_confidence and entry.confidence < CONF_FEED:
            return None
        return vpn - entry.offset

    def on_walk_complete(self, pc: int, vpn: int, ppn: int, contig_bit: bool) -> str:
        """The nested walker's table update; returns the miss outcome.

        Call once per last-level TLB miss after the verification walk
        resolved the true translation ``vpn -> ppn``.
        """
        actual_offset = vpn - ppn
        entry = self.lookup(pc)
        if entry is None:
            if contig_bit:
                self._insert(pc, actual_offset)
            self.stats.no_prediction += 1
            return NO_PREDICTION

        fed = entry.confidence >= CONF_FEED if self.use_confidence else True
        match = entry.offset == actual_offset
        if not self.use_confidence:
            if not match:
                entry.offset = actual_offset
        elif match:
            entry.confidence = min(CONF_MAX, entry.confidence + 1)
        else:
            entry.confidence -= 1
            if entry.confidence <= 0:
                entry.offset = actual_offset
                entry.confidence = 1
        if fed and match:
            self.stats.correct += 1
            return CORRECT
        if fed:
            self.stats.mispredict += 1
            return MISPREDICT
        self.stats.no_prediction += 1
        return NO_PREDICTION

    def _insert(self, pc: int, offset: int) -> None:
        s = self._set_of(pc)
        if len(s) >= self.ways:
            del s[next(iter(s))]  # LRU eviction
        s[pc] = _Entry(pc, offset)
        self.stats.fills += 1

    @property
    def occupancy(self) -> int:
        """Entries currently resident."""
        return sum(len(s) for s in self._sets)

    # -- batched walk path (what MmuSimulator replays) -----------------------

    def on_walks_batch(
        self,
        pcs: np.ndarray,
        vpns: np.ndarray,
        ppns: np.ndarray,
        contigs: np.ndarray,
    ) -> tuple[int, int, int]:
        """Batched :meth:`on_walk_complete` over a whole walk stream.

        Returns ``(correct, mispredict, no_prediction)`` totals and
        leaves the table — residency, per-set LRU order, every entry's
        offset and confidence — and ``stats`` exactly as the per-miss
        loop would.

        Residency is *not* a pure function of the access stream (a
        non-contig access to an absent PC is a no-op, so whether an
        access touches the table feeds back into later outcomes), but
        it is pure within every maximal run of equal contiguity bits:

        - in an all-contig segment every access touches (hit refreshes,
          miss inserts), which is plain set-associative LRU — resolved
          with the stack-distance engine (:func:`~repro.hw.vector_tlb.
          simulate_level`) under the usual warm-prefix trick;
        - in a no-contig segment membership cannot change at all
          (no inserts means no evictions either), so hits are a static
          membership test and only the LRU order needs recomputing.

        Outcomes then follow per PC: each *residency episode* (an
        inserting miss plus the hits that follow it until eviction, or
        a warm entry's leading hits) drives the 2-bit confidence
        automaton, whose state moves by table over runs of equal actual
        offsets, for all episodes at once (see :meth:`_outcomes`).
        """
        n = int(len(pcs))
        if n == 0:
            return (0, 0, 0)
        from repro.hw import vector_tlb as vt

        pcs64 = np.ascontiguousarray(pcs, dtype=np.int64)
        offsets = np.ascontiguousarray(vpns, dtype=np.int64) - np.ascontiguousarray(
            ppns, dtype=np.int64
        )
        contig_b = np.ascontiguousarray(contigs, dtype=bool)
        sets = vt.set_indices(pcs64.astype(np.uint64), self.n_sets)

        # Initial state: per-set resident PCs (LRU→MRU) + entry states.
        resident: list[list[int]] = [list(s) for s in self._sets]
        final_state: dict[int, tuple[int, int]] = {
            pc: (e.offset, e.confidence)
            for s in self._sets
            for pc, e in s.items()
        }

        hit = np.zeros(n, dtype=bool)
        fills = 0

        # Maximal uniform-contig segments.
        flips = np.flatnonzero(contig_b[1:] != contig_b[:-1]) + 1
        bounds = [0, *flips.tolist(), n]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if contig_b[lo]:
                seg_hits, resident, seg_fills = self._contig_segment(
                    pcs64[lo:hi], sets[lo:hi], resident, vt
                )
                hit[lo:hi] = seg_hits
                fills += seg_fills
            else:
                hit[lo:hi] = self._bypass_segment(pcs64[lo:hi], resident)

        correct, mispredict, no_prediction = self._outcomes(
            pcs64, offsets, hit, contig_b, final_state
        )

        # Rebuild the table: residency/order from the segment machinery,
        # entry values from each PC's last episode.
        for k in range(self.n_sets):
            d: dict[int, _Entry] = {}
            for pc in resident[k]:
                offset, conf = final_state[pc]
                entry = _Entry(pc, offset)
                entry.confidence = conf
                d[pc] = entry
            self._sets[k] = d

        self.stats.correct += correct
        self.stats.mispredict += mispredict
        self.stats.no_prediction += no_prediction
        self.stats.fills += fills
        return (correct, mispredict, no_prediction)

    def _contig_segment(self, pcs, sets, resident, vt):
        """All-contig segment: pure LRU via the stack-distance engine."""
        warm_codes: list[int] = []
        warm_sets: list[int] = []
        for k, lst in enumerate(resident):
            warm_codes.extend(lst)
            warm_sets.extend([k] * len(lst))
        skip = len(warm_codes)
        codes = pcs
        seg_sets = sets
        if skip:
            codes = np.concatenate(
                [np.asarray(warm_codes, dtype=np.int64), pcs]
            )
            seg_sets = np.concatenate(
                [np.asarray(warm_sets, dtype=np.int32), sets]
            )
        hits, new_resident = vt.simulate_level(
            codes, seg_sets, self.n_sets, self.ways
        )
        hits = hits[skip:]
        return hits, new_resident, int(hits.size - hits.sum())

    @staticmethod
    def _bypass_segment(pcs, resident):
        """No-contig segment: membership is frozen; refresh LRU order."""
        res_pcs = [pc for lst in resident for pc in lst]
        if not res_pcs:
            return np.zeros(pcs.size, dtype=bool)
        hits = np.isin(pcs, np.asarray(res_pcs, dtype=np.int64))
        if hits.any():
            touched = pcs[hits]
            # Unique touched PCs ordered by *last* touch (reversed scan
            # gives last occurrences; re-sorting the positions restores
            # stream order).
            uniq, first_rev = np.unique(touched[::-1], return_index=True)
            last_pos = touched.size - 1 - first_rev
            by_last = uniq[np.argsort(last_pos, kind="stable")].tolist()
            touched_set = set(by_last)
            for k, lst in enumerate(resident):
                if not lst:
                    continue
                in_set = set(lst)
                kept = [pc for pc in lst if pc not in touched_set]
                moved = [pc for pc in by_last if pc in in_set]
                if moved:
                    resident[k] = kept + moved
        return hits

    def _outcomes(self, pcs64, offsets, hit, contig_b, final_state):
        """Aggregate outcomes + final entry states, per PC timeline.

        Each PC's accesses, in time order, are a sequence of residency
        episodes: an inserting (contig) miss or, for a warm entry, its
        entering state, then the hits that follow until eviction.  Every
        miss is a ``no_prediction``; bypassed (non-contig) misses insert
        nothing and own no hits.  Within an episode the hits are split
        into runs of equal actual offsets, and all episodes of all PCs
        go through the confidence automaton at once
        (:func:`_run_states`).
        """
        from repro.hw import vector_tlb as vt

        no_prediction = hit.size - int(np.count_nonzero(hit))
        # Tokens, per PC in time order: the hits, and the inserting
        # misses that open episodes (at their own offset, confidence 1).
        order = vt.stable_order(pcs64)
        token = hit | contig_b
        if not token.all():
            order = order[token[order]]
        if order.size == 0:
            return 0, 0, no_prediction
        value = offsets[order]
        opens = ~hit[order]
        token_pc = pcs64[order]
        del order
        # A PC whose first token hits continues its warm entry: open it
        # with the entry's state.
        warm = np.flatnonzero(token_pc[1:] != token_pc[:-1]) + 1
        warm = np.concatenate(([0], warm))
        warm = warm[~opens[warm]]
        if warm.size:
            warm_pcs = token_pc[warm]
            warm_states = [final_state[pc] for pc in warm_pcs.tolist()]
            value = np.insert(value, warm, [o for o, _ in warm_states])
            opens = np.insert(opens, warm, True)
            token_pc = np.insert(token_pc, warm, warm_pcs)
            warm += np.arange(warm.size)

        # Runs: an opening token is a run of its own; hits split where
        # the offset changes.
        new_run = opens.copy()
        new_run[1:] |= opens[:-1]
        new_run[1:] |= value[1:] != value[:-1]
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.append(starts, value.size))
        vals = value[starts]
        codes = np.minimum(lens, _LEN_CAP) - 1
        # The flags of a run's first few moves may compare against the
        # previous episode, but no state reachable there reads them.
        for back in (1, 2, 3):
            eq = np.zeros(vals.size, dtype=bool)
            np.equal(vals[back:], vals[:-back], out=eq[back:])
            codes += eq * (_LEN_CAP << (3 - back))
        codes[opens[starts]] = _MOVES
        if warm.size:
            codes[np.searchsorted(starts, warm)] = _MOVES - 1 + np.asarray(
                [c for _, c in warm_states]
            )

        nxt, counts = _automaton(self.use_confidence)
        enter = _run_states(codes, nxt)
        flat = codes * len(_STATES) + enter
        # Every access past the capped length of a run is correct.
        correct = int(counts[0].ravel()[flat].sum())
        correct += int(np.maximum(lens - _LEN_CAP, 0).sum())
        mispredict = int(counts[1].ravel()[flat].sum())
        no_prediction += int(counts[2].ravel()[flat].sum())

        # Each PC's final entry: the state after its last run.
        run_pc = token_pc[starts]
        last = np.flatnonzero(np.append(run_pc[1:] != run_pc[:-1], True))
        leave = nxt.ravel()[flat[last]].tolist()
        for r, pc, st in zip(last.tolist(), run_pc[last].tolist(), leave):
            back, conf = _STATES[st]
            final_state[pc] = (int(vals[r - back]), conf)
        return correct, mispredict, no_prediction


#: States of the confidence automaton after a run of equal offsets:
#: ``(back, confidence)``, the cached offset being the value of the run
#: ``back`` runs earlier.  Consecutive runs differ and a mismatch run
#: that does not flip the offset must be shorter than the confidence
#: (at most 3), so the offset is always one of the last three runs'.
_STATES = ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1))
#: Run lengths are capped here in the move codes: past it, every
#: access of a run is correct.
_LEN_CAP = 5
#: Move codes below this: ``eq1 eq2 eq3`` (the run's offset equals the
#: run 1/2/3 back) times the capped length.  Opening an episode at
#: confidence ``c`` is code ``_MOVES + c - 1``; the identity move after
#: those pads the last chunk.
_MOVES = 8 * _LEN_CAP
_IDENTITY = _MOVES + CONF_MAX
#: Runs per lockstep chunk of :func:`_run_states`.
_RUN_CHUNK = 128


@functools.lru_cache(maxsize=None)
def _automaton(use_confidence: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per (move code, state): the next state, and the (correct,
    mispredict, no_prediction) counts of the run.

    Built by driving a one-entry :class:`SpotPredictor` through
    :meth:`~SpotPredictor.on_walk_complete`, so the batched replay
    follows the per-miss reference by construction.
    """
    index = {st: k for k, st in enumerate(_STATES)}
    nxt = np.zeros((_IDENTITY + 1, len(_STATES)), dtype=np.int16)
    counts = np.zeros((3, _IDENTITY + 1, len(_STATES)), dtype=np.int64)
    outcome_row = {CORRECT: 0, MISPREDICT: 1, NO_PREDICTION: 2}
    for code in range(_MOVES):
        eqs, length = divmod(code, _LEN_CAP)
        for k, (back, conf) in enumerate(_STATES):
            # The cached offset is 0; the run's is 0 iff it equals the
            # run the cached offset came from.
            actual = 0 if eqs >> (2 - back) & 1 else 1
            p = SpotPredictor(1, 1, use_confidence=use_confidence)
            p._insert(0, 0)
            p._sets[0][0].confidence = conf
            for _ in range(length + 1):
                outcome = p.on_walk_complete(0, actual, 0, True)
                counts[outcome_row[outcome], code, k] += 1
            entry = p._sets[0][0]
            moved = 0 if entry.offset == actual else back + 1
            nxt[code, k] = index[(moved, entry.confidence)]
    for conf in range(1, CONF_MAX + 1):
        nxt[_MOVES + conf - 1] = index[(0, conf)]
    nxt[_IDENTITY] = np.arange(len(_STATES))
    nxt.flags.writeable = counts.flags.writeable = False  # shared by callers
    return nxt, counts


def _run_states(codes: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """The state entering each run, for a stream of move codes.

    Runs are cut into chunks of :data:`_RUN_CHUNK`; each chunk's moves
    are composed for every entering state at once, in lockstep across
    chunks, recording the state entering each run.  One pass over the
    chunks' composed maps then fixes each chunk's actual entering state.
    The first run is always an opening move, so the stream's own
    entering state is immaterial.
    """
    n_states = len(_STATES)
    n_chunks = -(-codes.size // _RUN_CHUNK)
    grid = np.full(n_chunks * _RUN_CHUNK, _IDENTITY, dtype=np.int16)
    grid[:codes.size] = codes
    grid = grid.reshape(n_chunks, _RUN_CHUNK) * np.int16(n_states)
    step = nxt.ravel()
    state = np.tile(np.arange(n_states, dtype=np.int16), (n_chunks, 1))
    enter = np.empty((_RUN_CHUNK, n_chunks, n_states), dtype=np.int8)
    for t in range(_RUN_CHUNK):
        enter[t] = state
        state = step[grid[:, t, None] + state]
    entry = []
    st = 0
    for row in state.tolist():
        entry.append(st)
        st = row[st]
    picked = enter[:, np.arange(n_chunks), entry]
    return picked.T.ravel()[:codes.size].astype(np.int16)
