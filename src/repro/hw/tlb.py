"""Set-associative TLBs and the two-level hierarchy of Table II.

Keys are ``(base_vpn, huge)`` pairs: a 2 MiB entry covers its whole
512-page region under one tag.  Replacement is true LRU within a set
(dict insertion order re-touched on hit).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class SetAssocTlb:
    """One set-associative translation buffer."""

    __slots__ = ("n_sets", "ways", "_sets", "hits", "misses")

    def __init__(self, entries: int, ways: int):
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ConfigError(
                f"invalid TLB geometry: {entries} entries, {ways} ways"
            )
        self.n_sets = entries // ways
        self.ways = ways
        self._sets: list[dict] = [dict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _set_of(self, key) -> dict:
        # Mix the hash before picking a set: Python hashes integers to
        # themselves, so aligned keys (anchor bases, page numbers)
        # would otherwise alias into a single set.
        return self._sets[((hash(key) * 0x9E3779B1) >> 12) % self.n_sets]

    def lookup(self, key) -> bool:
        """Probe for ``key``; refreshes LRU position on a hit."""
        s = self._set_of(key)
        if key in s:
            # Move to MRU position (dicts preserve insertion order).
            del s[key]
            s[key] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key) -> None:
        """Fill ``key``, evicting the LRU way when the set is full."""
        s = self._set_of(key)
        if key in s:
            del s[key]
        elif len(s) >= self.ways:
            del s[next(iter(s))]  # oldest = LRU
        s[key] = None

    def flush(self) -> None:
        """Invalidate everything (context switch / shootdown)."""
        for s in self._sets:
            s.clear()

    @property
    def occupancy(self) -> int:
        """Entries currently resident."""
        return sum(len(s) for s in self._sets)


class TlbHierarchy:
    """Split L1 (4K / 2M) + unified L2 (the paper's L2 STLB).

    ``access`` returns ``"l1"``, ``"l2"`` or ``"miss"``; only ``"miss"``
    triggers a page walk (the paper's instrumentation point).  Fills
    propagate to both levels.
    """

    def __init__(self, l1_4k: SetAssocTlb, l1_2m: SetAssocTlb, l2: SetAssocTlb):
        self.l1_4k = l1_4k
        self.l1_2m = l1_2m
        self.l2 = l2

    @classmethod
    def from_config(cls, hw) -> "TlbHierarchy":
        """Build from a :class:`~repro.sim.config.HardwareConfig`."""
        return cls(
            SetAssocTlb(hw.l1_4k_entries, hw.l1_4k_ways),
            SetAssocTlb(hw.l1_2m_entries, hw.l1_2m_ways),
            SetAssocTlb(hw.l2_entries, hw.l2_ways),
        )

    def access(self, base_vpn: int, huge: bool) -> str:
        """One translation request; fills on miss resolution."""
        l1 = self.l1_2m if huge else self.l1_4k
        key = (base_vpn, huge)
        if l1.lookup(key):
            return "l1"
        if self.l2.lookup(key):
            l1.insert(key)
            return "l2"
        # The page walk resolved the translation: fill both levels.
        self.l2.insert(key)
        l1.insert(key)
        return "miss"

    def flush(self) -> None:
        """Invalidate all levels."""
        self.l1_4k.flush()
        self.l1_2m.flush()
        self.l2.flush()

    # -- batched access (what MmuSimulator replays) --------------------------

    def simulate(self, base_vpn: np.ndarray, huge: np.ndarray) -> np.ndarray:
        """Replay a whole access stream at once, exactly.

        Equivalent to calling :meth:`access` per element: returns the
        per-access level (0 = L1 hit, 1 = L2 hit, 2 = walk) and leaves
        every counter and every set's resident keys + LRU order as the
        sequential replay would.  Set-associative LRU outcomes are a
        pure function of the access stream (hits and fills both move
        the key to MRU), which is what lets the whole stream be decided
        up front — see :mod:`repro.hw.vector_tlb`.
        """
        from repro.hw import vector_tlb as vt

        m = len(base_vpn)
        levels = np.zeros(m, dtype=np.int8)
        if m == 0:
            return levels
        hashes = vt.key_hashes(base_vpn, huge)
        codes = np.left_shift(base_vpn, 1)
        np.bitwise_or(codes, huge, out=codes, casting="unsafe")
        huge_mask = huge if huge.dtype == bool else huge.astype(bool)
        n_huge = int(huge_mask.sum())
        l1_hit = np.zeros(m, dtype=bool)
        for l1, idx in (
            (self.l1_4k, None if n_huge == 0 else np.flatnonzero(~huge_mask)),
            (self.l1_2m, None if n_huge == m else np.flatnonzero(huge_mask)),
        ):
            if idx is None:
                # This level takes the whole stream: skip the gathers.
                sets = vt.set_indices(hashes, l1.n_sets)
                l1_hit = self._level_hits(l1, codes, sets)
            elif idx.size == 0:
                continue
            else:
                sets = vt.set_indices(hashes[idx], l1.n_sets)
                l1_hit[idx] = self._level_hits(l1, codes[idx], sets)
        miss_idx = np.flatnonzero(~l1_hit)
        sets = vt.set_indices(hashes[miss_idx], self.l2.n_sets)
        l2_hit = self._level_hits(self.l2, codes[miss_idx], sets)
        levels[miss_idx] = np.where(l2_hit, np.int8(1), np.int8(2))
        return levels

    @staticmethod
    def _level_hits(tlb: SetAssocTlb, codes: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Hit mask of one level's stream; updates counters and contents.

        Pre-existing residents behave exactly like a warmup prefix that
        accessed each of them in LRU→MRU order (that replay rebuilds the
        same occupancy and recency without evicting), so they are
        prepended for the outcome computation and dropped from the
        accounting.
        """
        from repro.hw import vector_tlb as vt

        warm_codes: list[int] = []
        warm_sets: list[int] = []
        for s, resident in enumerate(tlb._sets):
            for key in resident:
                warm_codes.append((key[0] << 1) | int(bool(key[1])))
                warm_sets.append(s)
        skip = len(warm_codes)
        if skip:
            codes = np.concatenate(
                [np.asarray(warm_codes, dtype=np.int64), codes]
            )
            sets = np.concatenate([np.asarray(warm_sets, dtype=np.int32), sets])
        hits, resident = vt.simulate_level(codes, sets, tlb.n_sets, tlb.ways)
        hits = hits[skip:]
        n_hits = int(hits.sum())
        tlb.hits += n_hits
        tlb.misses += hits.size - n_hits
        for s, keys in zip(tlb._sets, resident):
            s.clear()
            for code in keys:
                s[(code >> 1, bool(code & 1))] = None
        return hits

    @property
    def walk_count(self) -> int:
        """Translation requests that required a page walk."""
        return self.l2.misses
