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
        automaton, whose state moves in closed form over runs of equal
        actual offsets (see :meth:`_episode_outcomes`).
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
        """Aggregate outcomes + final entry states, per PC timeline."""
        correct = mispredict = no_prediction = 0
        order = np.argsort(pcs64, kind="stable")
        sorted_pcs = pcs64[order]
        group_starts = np.flatnonzero(
            np.concatenate(([True], sorted_pcs[1:] != sorted_pcs[:-1]))
        )
        group_ends = np.concatenate((group_starts[1:], [sorted_pcs.size]))
        for g_lo, g_hi in zip(group_starts.tolist(), group_ends.tolist()):
            idx = order[g_lo:g_hi]  # this PC's accesses, in time order
            pc = int(sorted_pcs[g_lo])
            h = hit[idx]
            offs = offsets[idx]
            miss_list = np.flatnonzero(~h).tolist()
            n_misses = len(miss_list)
            no_prediction += n_misses
            # Episode boundaries: leading hits continue the warm entry;
            # each inserting (contig) miss opens a fresh one.  A hit can
            # only follow an insert, so bypassed misses own no hits.
            first_miss = miss_list[0] if n_misses else len(h)
            if first_miss > 0:
                o0, c0 = final_state[pc]
                c, m, np_, state = self._episode_outcomes(
                    o0, c0, offs[:first_miss]
                )
                correct += c
                mispredict += m
                no_prediction += np_
                final_state[pc] = state
            for j, miss_at in enumerate(miss_list):
                if not contig_b[idx[miss_at]]:
                    continue  # bypassed miss: no insert, no episode
                end = miss_list[j + 1] if j + 1 < n_misses else len(h)
                o0 = int(offs[miss_at])
                if miss_at + 1 == end:  # episode with no hits
                    final_state[pc] = (o0, 1)
                    continue
                c, m, np_, state = self._episode_outcomes(
                    o0, 1, offs[miss_at + 1:end]
                )
                correct += c
                mispredict += m
                no_prediction += np_
                final_state[pc] = state
        return correct, mispredict, no_prediction

    def _episode_outcomes(self, o0, c0, offs):
        """Run the confidence automaton over one residency episode.

        ``offs`` are the actual offsets of the episode's hit accesses;
        the entry enters as ``(o0, c0)``.  Returns the outcome counts
        plus the final ``(offset, confidence)``, identical to feeding
        each access through :meth:`on_walk_complete` — but in closed
        form per run of equal offsets: the cached offset only moves
        when confidence drains to zero, so inside a run the counter
        walks a fixed ramp whose fed/match composition is arithmetic.
        """
        L_total = int(offs.size)
        if L_total == 0:
            return 0, 0, 0, (o0, c0)
        if not self.use_confidence:
            # Mismatches replace the offset immediately, so the cached
            # offset before access j is simply offset j-1 (o0 first);
            # every access is fed.
            prev = np.empty(L_total, dtype=np.int64)
            prev[0] = o0
            prev[1:] = offs[:-1]
            n_correct = int((offs == prev).sum())
            return (
                n_correct,
                L_total - n_correct,
                0,
                (int(offs[-1]), c0),
            )
        correct = mispredict = no_prediction = 0
        o, c = int(o0), int(c0)
        run_bounds = np.flatnonzero(offs[1:] != offs[:-1]) + 1
        starts = np.concatenate(([0], run_bounds))
        ends = np.concatenate((run_bounds, [L_total]))
        vals = offs[starts]
        for a, L in zip(vals.tolist(), (ends - starts).tolist()):
            if a == o:
                # Match run: counter ramps c, c+1, ... (capped); fed
                # (CORRECT) from the first step with confidence >= 2.
                n_cold = max(0, min(L, CONF_FEED - c))
                correct += L - n_cold
                no_prediction += n_cold
                c = min(CONF_MAX, c + L)
            else:
                # Mismatch phase: counter drains c, c-1, ..., 1 (all
                # steps with confidence >= 2 are fed mispredictions),
                # then the offset flips to ``a`` with confidence 1 and
                # the rest of the run is a match ramp from 1.
                k = min(L, c)
                n_fed = max(0, min(k, c - 1))
                mispredict += n_fed
                no_prediction += k - n_fed
                if L >= c:
                    rest = L - c
                    n_correct = max(0, rest - 1)
                    correct += n_correct
                    no_prediction += rest - n_correct
                    o = a
                    c = min(CONF_MAX, 1 + rest)
                else:
                    c -= L
        return correct, mispredict, no_prediction, (o, c)
