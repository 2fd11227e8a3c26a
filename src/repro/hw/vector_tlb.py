"""Exact vectorized set-associative LRU simulation.

The MMU simulator's TLB replay rests on one structural fact: a TLB
access moves its key to the MRU position *whether it hits or misses*
(a hit refreshes, a miss fills), so set membership over time is a pure
function of the access stream — never of the hit/miss outcomes.  The
resident keys of a ``ways``-way set are therefore always the ``ways``
most recently accessed distinct keys, and an access hits iff fewer
than ``ways`` distinct keys were touched in its set since the previous
access to the same key (the classic LRU stack-distance criterion).

That criterion is computed without simulating anything, per
set-associative level:

1. fold: an access whose key equals the previous access in its set is
   a sure hit and leaves the set unchanged, so it is dropped (and its
   hit scattered back at the end); the rest of the stream has no
   adjacent equal keys within a set;
2. cold keys (no previous occurrence) miss;
3. a reuse gap of fewer than ``ways`` intervening accesses cannot span
   ``ways`` distinct keys — sure hit;
4. the remaining ambiguous windows count distinct keys, where position
   ``j`` counts iff its key does not recur before the access under
   test.  A window that starts before its block of :data:`_BLOCK`
   positions is decided against a ``ways``-wide snapshot of the LRU
   stack at the block start; a shorter one is scanned backward in
   lockstep, stopping at ``ways``, and once few windows remain each is
   finished with one slice reduction.

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
#: Ambiguous windows that start before their block of this many
#: (folded, set-grouped) positions are decided against a snapshot of
#: the LRU stack at the block start; shorter ones are scanned.
_BLOCK = 512
#: Windows per snapshot-test chunk (bounds the ``ways``-wide temporaries).
_CHUNK = 16384


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


def _set_grouped_order(sets: np.ndarray, n_sets: int) -> np.ndarray | None:
    """Stable permutation grouping accesses by set (time order within);
    None for one set, whose stream is grouped already."""
    if n_sets == 1:
        return None
    if n_sets <= 4:
        # A handful of linear passes beats the packed sort.
        return np.concatenate(
            [np.flatnonzero(sets == s) for s in range(n_sets)]
        )
    return stable_order(sets)


def _prev_next(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Previous and next position of each key (-1 and ``c.size`` when
    there is none), as int32.

    Packing the position into the key's low bits makes a plain sort
    stable for free and keeps numpy on its fast unstable path; the
    stable argsort fallback covers keys too wide to pack.
    """
    m = c.size
    shift = m.bit_length()
    if int(c.min()) >= 0 and int(c.max()) < (1 << (62 - shift)):
        sp = c << shift
        sp |= np.arange(m, dtype=np.int64)
        sp.sort()
        o2 = (sp & np.int64((1 << shift) - 1)).astype(np.int32)
        sp >>= shift
        same = sp[1:] == sp[:-1]
    else:
        o2 = np.argsort(c, kind="stable").astype(np.int32)
        co = c[o2]
        same = co[1:] == co[:-1]
    lo = o2[:-1][same]
    hi = o2[1:][same]
    prev = np.full(m, -1, dtype=np.int32)
    prev[hi] = lo
    nxt = np.full(m, m, dtype=np.int32)
    nxt[lo] = hi
    return prev, nxt


def _scan_hits(
    i_arr: np.ndarray, p: np.ndarray, nxt: np.ndarray, ways: int
) -> list[np.ndarray]:
    """Hitting windows ``(p, i)`` among short ones, by lockstep scan.

    Each window is scanned backward one position per round; position
    ``j`` counts toward its distinct total iff its key does not recur
    before ``i`` (``nxt[j] >= i``).  Reaching ``ways`` decides a miss,
    exhausting the window decides a hit.
    """
    hits = []
    p1 = p + 1  # window floor
    cnt = np.zeros(i_arr.size, dtype=np.int32)
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
                hits.append(i_arr[done_hit])
            live = ~dead
            i_arr = i_arr[live]
            p1 = p1[live]
            cnt = cnt[live]
            j = j[live]
    # Tail: one slice reduction per remaining window (no early stop
    # needed — only a handful of windows are left).
    hits.append(np.asarray([
        int(i_arr[t])
        for t in range(i_arr.size)
        if int(cnt[t]) + int((nxt[int(p1[t]):int(j[t]) + 1] >= i_arr[t]).sum())
        < ways
    ], dtype=np.int32))
    return hits


def _snapshot_hits(
    i_arr: np.ndarray, p: np.ndarray, prev: np.ndarray, nxt: np.ndarray,
    ways: int,
) -> list[np.ndarray]:
    """Hitting windows ``(p, i)`` among those that start before the
    block holding ``i``, against per-block snapshots of the LRU stack.

    With ``b`` the block start (``p < b <= i``), the window's distinct
    keys are those touched in ``[b, i)`` — one per position there whose
    previous occurrence lies before ``b`` — plus those whose last access
    before ``b`` lies past ``p`` and that do not recur before ``i``.
    The last accesses before ``b`` are the positions alive at ``b``
    (``nxt >= b``), and only the latest ``ways`` of them matter: when
    all of those lie past ``p`` the window misses anyway.
    """
    m = nxt.size
    block_start = np.arange(m, dtype=np.int32)
    block_start &= np.int32(-_BLOCK)
    # The snapshot at block k is the latest `ways` of the snapshot at
    # block k-1 still alive plus block k-1's positions alive at its end.
    end_alive = np.flatnonzero(nxt >= block_start + _BLOCK).astype(np.int32)
    n_blocks = int(i_arr.max()) // _BLOCK + 1
    cuts = np.searchsorted(
        end_alive, np.arange(n_blocks, dtype=np.int32) * _BLOCK
    ).tolist()
    snap = np.full((n_blocks, ways), -1, dtype=np.int32)
    cur = end_alive[:0]
    for k in range(1, n_blocks):
        fresh = end_alive[cuts[k - 1]:cuts[k]]
        if fresh.size < ways:
            cur = np.concatenate((cur[nxt[cur] >= k * _BLOCK], fresh))[-ways:]
        else:
            cur = fresh[-ways:]
        snap[k, ways - cur.size:] = cur
    snap_next = nxt[snap]  # padding (-1) gathers junk; `snap > p` drops it
    # Keys first touched in [b, i): prefix counts of positions whose
    # previous occurrence lies before their block.
    first = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(prev < block_start, out=first[1:])
    del block_start
    # Windows touching `ways` keys in [b, i) already miss.
    count = first[i_arr]
    count -= first[i_arr & np.int32(-_BLOCK)]
    open_ = count < ways
    i_arr, p, count = i_arr[open_], p[open_], count[open_]
    hits = []
    for lo in range(0, i_arr.size, _CHUNK):
        i = i_arr[lo:lo + _CHUNK]
        k = i // _BLOCK
        late = snap[k] > p[lo:lo + _CHUNK, None]
        late &= snap_next[k] >= i[:, None]
        c = late.sum(axis=1, dtype=np.int32)
        c += count[lo:lo + _CHUNK]
        hits.append(i[c < ways])
    return hits


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
    c = codes if order is None else codes[order]

    # Fold: an access whose key equals the previous access in its set
    # is a sure hit and leaves the set unchanged (a key maps to one
    # set, so equal neighbours in grouped order share a set).
    keep = np.empty(m, dtype=bool)
    keep[0] = True
    np.not_equal(c[1:], c[:-1], out=keep[1:])
    src = np.flatnonzero(keep)
    c = c[src]
    if order is not None:
        src = order[src]
    del keep, order
    prev, nxt = _prev_next(c)

    # A reuse gap below `ways` cannot span `ways` distinct keys; the
    # floor at 0 keeps cold keys (prev == -1) out at small positions.
    floor = np.arange(-ways, c.size - ways, dtype=np.int32)
    np.maximum(floor, 0, out=floor)
    hit = prev >= floor
    q = np.flatnonzero((prev >= 0) & ~hit).astype(np.int32)
    if q.size:
        p = prev[q]
        near = p >= (q & np.int32(-_BLOCK))
        pieces = _scan_hits(q[near], p[near], nxt, ways)
        far = ~near
        if far.any():
            pieces += _snapshot_hits(q[far], p[far], prev, nxt, ways)
        hit[np.concatenate(pieces)] = True

    # Post-stream residents: each set's last `ways` distinct keys, in
    # last-access order = each key's final occurrence (nxt == size);
    # grouped positions are already ordered by set.
    last_pos = np.flatnonzero(nxt == c.size)
    counts = np.bincount(sets[src[last_pos]], minlength=n_sets)
    ends = np.cumsum(counts).tolist()
    resident = []
    for k, count in enumerate(counts.tolist()):
        grp = last_pos[max(ends[k] - ways, ends[k] - count):ends[k]]
        resident.append(c[grp].tolist())

    out = np.ones(m, dtype=bool)
    out[src] = hit
    return out, resident
