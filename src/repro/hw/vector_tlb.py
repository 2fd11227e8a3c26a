"""Exact vectorized set-associative LRU simulation.

The MMU simulator's TLB replay rests on one structural fact: a TLB
access moves its key to the MRU position *whether it hits or misses*
(a hit refreshes, a miss fills), so set membership over time is a pure
function of the access stream — never of the hit/miss outcomes.  The
resident keys of a ``ways``-way set are therefore always the ``ways``
most recently accessed distinct keys, and an access hits iff fewer
than ``ways`` distinct keys were touched in its set since the previous
access to the same key (the classic LRU stack-distance criterion).

That criterion is computed without simulating anything, in four
vectorized stages per set-associative level:

1. cold keys (no previous occurrence) miss;
2. a reuse gap of fewer than ``ways`` intervening accesses cannot span
   ``ways`` distinct keys — sure hit;
3. fewer than ``ways`` *runs* of equal keys inside the gap bounds the
   distinct count the same way — sure hit;
4. the remaining ambiguous windows are scanned backward in lockstep,
   counting only positions whose key does not recur before the access
   under test (each distinct key in a window is counted exactly once,
   at its last occurrence there) and stopping at ``ways``; once few
   windows remain, each is finished with one slice reduction.

Set indices replicate :meth:`SetAssocTlb._set_of` bit for bit, which
requires the CPython ``hash((base_vpn, huge))`` value; the xxHash-based
tuple hash (CPython >= 3.8) is reproduced in wrapping uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

# CPython's tuple-hash constants (pyhash.h, 64-bit build).
_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = np.uint64(14029467366897019727)
_XXPRIME_5 = np.uint64(2870177450012600261)
#: Golden-ratio multiplier from :meth:`SetAssocTlb._set_of`.
_SET_MIX = np.uint64(0x9E3779B1)

#: Lockstep scans hand the last few unresolved windows to per-window
#: slice reductions (the long tail would otherwise pay per-round
#: dispatch overhead on near-empty arrays).
_SCAN_TAIL = 256


def tuple2_hashes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``hash((int(a), int(b)))`` per element, as wrapping uint64.

    Exact for lane values in ``[0, 2**61 - 1)`` (where ``hash(int)`` is
    the identity — page numbers, PCs, walk levels and bools all are) on
    64-bit CPython >= 3.8.  Every 2-tuple set-index replication (TLB
    keys, PWC level prefixes, nTLB table pages) shares this helper.
    """
    acc = first.astype(np.uint64)
    acc *= _XXPRIME_2
    acc += _XXPRIME_5
    hi = acc >> np.uint64(33)
    acc <<= np.uint64(31)
    acc |= hi
    acc *= _XXPRIME_1
    lane = second.astype(np.uint64)
    lane *= _XXPRIME_2
    acc += lane
    np.right_shift(acc, np.uint64(33), out=hi)
    acc <<= np.uint64(31)
    acc |= hi
    acc *= _XXPRIME_1
    acc += np.uint64(2) ^ (_XXPRIME_5 ^ np.uint64(3527539))
    # CPython reserves -1 for errors.
    acc[acc == np.uint64(0xFFFFFFFFFFFFFFFF)] = np.uint64(1546275796)
    return acc


def key_hashes(base_vpn: np.ndarray, huge: np.ndarray) -> np.ndarray:
    """``hash((int(b), bool(h)))`` per element (see :func:`tuple2_hashes`)."""
    return tuple2_hashes(base_vpn, huge)


def set_indices(hashes: np.ndarray, n_sets: int) -> np.ndarray:
    """The set each key maps to, matching :meth:`SetAssocTlb._set_of`.

    Also exact for *unhashed* integer keys (``SpotPredictor._set_of``
    multiplies the raw PC): pass the keys themselves as ``hashes``.

    Python evaluates ``((hash * 0x9E3779B1) >> 12) % n_sets`` in exact
    integer arithmetic; for power-of-two set counts (every geometry in
    :class:`~repro.sim.config.HardwareConfig`) the result depends only
    on bits 12.. of the product modulo 2**64, so wrapping uint64
    arithmetic reproduces it.  Other set counts take an exact per-key
    fallback.
    """
    if n_sets & (n_sets - 1) == 0:
        mixed = hashes * _SET_MIX
        mixed >>= np.uint64(12)
        mixed &= np.uint64(n_sets - 1)
        return mixed.astype(np.int32)
    signed = hashes.astype(np.int64)
    return np.fromiter(
        (((int(v) * 0x9E3779B1) >> 12) % n_sets for v in signed),
        dtype=np.int32,
        count=signed.size,
    )


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys.

    Packing each position into the low bits of its key makes a plain
    sort stable and keeps numpy on its fast unstable path.  Packs that
    fit 31 bits (set indices) sort as int32, halving the temporaries;
    keys too wide to pack (or negative) take the stable argsort.
    """
    n = keys.size
    shift = n.bit_length()
    if n and int(keys.min()) >= 0:
        bits = int(keys.max()).bit_length() + shift
        if bits <= 62:
            dtype = np.int32 if bits <= 31 else np.int64
            packed = keys.astype(dtype)
            packed <<= shift
            packed |= np.arange(n, dtype=dtype)
            packed.sort()
            packed &= dtype((1 << shift) - 1)
            return packed
    return np.argsort(keys, kind="stable")


def _set_grouped_order(sets: np.ndarray, n_sets: int) -> np.ndarray:
    """Stable permutation grouping accesses by set (time order within)."""
    if n_sets == 1:
        return np.arange(sets.size, dtype=np.int64)
    if n_sets <= 4:
        # A handful of linear passes beats the packed sort.
        return np.concatenate(
            [np.flatnonzero(sets == s) for s in range(n_sets)]
        )
    return stable_order(sets)


def _ambiguous_hits(
    q: np.ndarray, prev: np.ndarray, nxt: np.ndarray, ways: int
) -> np.ndarray:
    """Resolve the ambiguous windows; returns the hitting subset of ``q``.

    All arrays are in set-grouped positions.  Each window ``(prev[i],
    i)`` is scanned backward one position per lockstep round; position
    ``j`` counts toward the distinct total iff its key does not recur
    before ``i`` (``nxt[j] >= i``).  Reaching ``ways`` decides a miss,
    exhausting the window decides a hit.
    """
    hits = []
    i_arr = q.astype(np.int32)
    p1 = prev[q] + 1  # window floor
    cnt = np.zeros(q.size, dtype=np.int32)
    j = i_arr - 1
    while i_arr.size > _SCAN_TAIL:
        # Scan a few positions between compactions: dead lanes keep
        # scanning but the `j >= p1` guard stops their counts (a lane
        # past its floor gathers a wrapped-around position — harmless,
        # the guard discards it).
        for _ in range(4):
            ok = nxt[j] >= i_arr
            ok &= j >= p1
            cnt += ok
            j -= np.int32(1)
        missed = cnt >= ways
        ended = j < p1
        dead = missed | ended
        if dead.any():
            done_hit = ended & ~missed
            if done_hit.any():
                hits.append(i_arr[done_hit].astype(np.int64))
            live = ~dead
            i_arr = i_arr[live]
            p1 = p1[live]
            cnt = cnt[live]
            j = j[live]
    # Tail: one slice reduction per remaining window (no early stop
    # needed — only a handful of windows are left).
    tail = [
        int(i_arr[t])
        for t in range(i_arr.size)
        if int(cnt[t]) + int((nxt[int(p1[t]):int(j[t]) + 1] >= i_arr[t]).sum())
        < ways
    ]
    hits.append(np.asarray(tail, dtype=np.int64))
    return np.concatenate(hits) if hits else np.zeros(0, dtype=np.int64)


def simulate_level(
    codes: np.ndarray, sets: np.ndarray, n_sets: int, ways: int
) -> tuple[np.ndarray, list[list[int]]]:
    """Exact replay of one set-associative LRU level.

    ``codes`` are packed keys (``(base_vpn << 1) | huge``) in access
    order; ``sets`` their set indices.  Returns the boolean hit mask in
    the same order plus each set's post-stream resident codes in
    LRU→MRU order — both identical to replaying the stream through
    :meth:`SetAssocTlb.lookup`/``insert``.
    """
    m = codes.size
    if m == 0:
        return np.zeros(0, dtype=bool), [[] for _ in range(n_sets)]
    order = _set_grouped_order(sets, n_sets)
    c = codes[order]
    s = sets[order]

    # Previous / next occurrence of the same key, in grouped positions
    # (a key always maps to one set, so key-sorting respects groups).
    # Packing the position into the key's low bits makes a plain sort
    # stable for free and keeps numpy on its fast unstable path; the
    # stable argsort fallback covers keys too wide to pack.
    shift = m.bit_length()
    pos = np.arange(m, dtype=np.int64)
    if int(c.min()) >= 0 and int(c.max()) < (1 << (62 - shift)):
        sp = c << shift
        sp |= pos
        sp.sort()
        o2 = (sp & np.int64((1 << shift) - 1)).astype(np.int32)
        sp >>= shift
        same = sp[1:] == sp[:-1]
    else:
        o2 = np.argsort(c, kind="stable").astype(np.int32)
        co = c[o2]
        same = co[1:] == co[:-1]
    o2_lo = o2[:-1][same]
    o2_hi = o2[1:][same]
    prev = np.full(m, -1, dtype=np.int32)
    prev[o2_hi] = o2_lo
    nxt = np.full(m, m, dtype=np.int32)
    nxt[o2_lo] = o2_hi

    # A reuse gap below `ways` cannot span `ways` distinct keys; the
    # max() keeps cold keys (prev == -1) out at small positions.
    pos32 = pos.astype(np.int32)
    hit = prev >= np.maximum(pos32 - ways, 0)

    q = np.flatnonzero((prev >= 0) & ~hit)
    if q.size:
        # Runs of equal keys inside the reuse window bound its distinct
        # count; window starts (prev+1) always begin a run because the
        # key at prev cannot repeat inside its own reuse window.
        bound = np.empty(m, dtype=bool)
        bound[0] = True
        np.not_equal(c[1:], c[:-1], out=bound[1:])
        bound[1:] |= s[1:] != s[:-1]
        rpre = np.cumsum(bound, dtype=np.int32)
        runs = rpre[q - 1] - rpre[prev[q]]
        ok = runs < ways
        hit[q[ok]] = True
        q = q[~ok]
    if q.size:
        hit[_ambiguous_hits(q, prev, nxt, ways)] = True

    # Post-stream residents: each set's last `ways` distinct keys, in
    # last-access order = each key's final occurrence (nxt == m).
    last_pos = np.flatnonzero(nxt == m)
    ls = s[last_pos]
    by_set = last_pos[_set_grouped_order(ls, n_sets)]
    counts = np.bincount(ls, minlength=n_sets)
    ends = np.cumsum(counts)
    resident = []
    for k in range(n_sets):
        grp = by_set[max(ends[k] - ways, ends[k] - counts[k]):ends[k]]
        resident.append(c[grp].tolist())

    out = np.empty(m, dtype=bool)
    out[order] = hit
    return out, resident
