"""Zero-copy framed blob transport for results and VM checkpoints.

``RPT1`` is a versioned, magic-header-framed container around pickle
protocol 5.  ``dumps`` extracts every contiguous buffer (numpy SoA
columns, bitmaps, page-table arrays) out-of-band via ``PickleBuffer``
so the multi-MB columnar state is never byte-copied through the
pickler, then encodes each buffer independently through a canonical
codec ladder:

* ``raw``   — buffers under :data:`MIN_ENCODE` bytes, or incompressible
  ones, are stored verbatim.
* ``rle``   — element-stride run-length coding: the buffer is viewed as
  unsigned integers of the widest stride (8/4/2/1) that divides it and
  wins on a 256 KiB sample, then stored as ``(values, run-lengths)``
  arrays.  Kernel columns (owner maps, alloc orders, present bitmaps)
  are dominated by long runs, so this routinely beats zlib by an order
  of magnitude in both size and speed, and decodes to a fresh
  *writable* array via ``np.repeat`` with no further copies.
* ``zlib``  — level-1 deflate with a sample-based skip heuristic so
  incompressible buffers (hash pages, RNG pools) are not run through
  the compressor at all.

The ladder is a pure function of the buffer's bytes, which makes the
encoding *canonical*: equal content always produces equal frames.
Delta checkpoints exploit that — ``dumps(vm, store=..., base=...)``
compares each frame's encoding against the base blob's frames and
replaces matches with a 20-byte ``ref`` frame pointing at the base
(flattened: a ref to a ref copies the terminal pointer, so chains
resolve in O(1) no matter how long the aging chain grows).

Blob layout (all little-endian)::

    "RPT1" | u8 version | u8 flags | u16 n_frames
           | u64 logical_bytes | 32-byte logical digest
    then per frame:
    u8 kind | u8 codec | u16 param | u32 crc32(stored)
            | u64 raw_len | u64 stored_len | stored bytes

The 32-byte digest is the sha256 of the *logical* state: for each
frame, the terminal (ref-resolved) ``codec/param/raw_len/stored``
tuple.  A delta blob and a full blob of the same state therefore carry
the same digest, which is what lets checkpoint-determinism checks
survive the delta optimisation.  Every byte of a blob is covered
by some check — magic, version, zero flags, structural frame bounds,
logical-byte total, per-frame CRC over stored bytes, codec/param enum
validation, and the digest — so any single corrupt byte surfaces as
:class:`TransportError` (a ``ValueError``, which the run cache already
quarantines).

Caveat worth knowing: ``rle`` and ``raw`` frames are bit-stable across
machines; ``zlib`` frames are only guaranteed stable within one zlib
build, so cross-machine digest comparisons should prefer checkpoints
whose frames RLE-compress (in practice all VM checkpoints do).
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from typing import Any

import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "TransportError",
    "BufferStore",
    "dumps",
    "loads",
    "is_framed",
    "blob_digest",
    "blob_info",
    "peek_logical_bytes",
]

MAGIC = b"RPT1"
VERSION = 1

KIND_PICKLE = 0
KIND_BUFFER = 1
KIND_REF = 2

CODEC_RAW = 0
CODEC_ZLIB = 1
CODEC_RLE = 2

#: buffers below this never enter the codec ladder — framing overhead
#: plus codec setup costs more than the bytes saved.
MIN_ENCODE = 512
#: bytes sampled from the head of a large buffer to decide its codec.
SAMPLE_BYTES = 256 * 1024
#: RLE must look like it at least halves the sample to attempt a full
#: encode, and the full encode must actually reach 0.6x to be kept.
RLE_SAMPLE_RATIO = 0.5
RLE_KEEP_RATIO = 0.6
#: zlib must reach 0.9x on the sample and on the full buffer.
ZLIB_SAMPLE_RATIO = 0.9
ZLIB_KEEP_RATIO = 0.9
ZLIB_LEVEL = 1

_HEADER = struct.Struct("<4sBBHQ32s")
_FRAME = struct.Struct("<BBHIQQ")
_DIGEST_FRAME = struct.Struct("<BHQ")
_REF_IDX = struct.Struct("<I")
_RLE_RUNS = struct.Struct("<Q")

_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


class TransportError(ValueError):
    """A blob failed structural, CRC, or digest validation."""


class _Frame:
    __slots__ = ("kind", "codec", "param", "crc", "raw_len", "stored")

    def __init__(self, kind, codec, param, crc, raw_len, stored):
        self.kind = kind
        self.codec = codec
        self.param = param
        self.crc = crc
        self.raw_len = raw_len
        self.stored = stored


class _Parsed:
    __slots__ = ("blob", "digest", "logical_bytes", "frames")

    def __init__(self, blob, digest, logical_bytes, frames):
        self.blob = blob
        self.digest = digest
        self.logical_bytes = logical_bytes
        self.frames = frames


def is_framed(blob: bytes) -> bool:
    """True when ``blob`` starts with the RPT1 magic."""
    return bytes(blob[:4]) == MAGIC


def _parse(blob: bytes) -> _Parsed:
    """Structural parse: bounds, enums, and byte-exact consumption."""
    view = memoryview(blob)
    if view.nbytes < _HEADER.size:
        raise TransportError("blob shorter than RPT1 header")
    magic, version, flags, n_frames, logical_bytes, digest = _HEADER.unpack_from(
        view, 0
    )
    if magic != MAGIC:
        raise TransportError("bad magic (not an RPT1 blob)")
    if version != VERSION:
        raise TransportError(f"unsupported RPT1 version {version}")
    if flags != 0:
        raise TransportError(f"unknown RPT1 flags 0x{flags:02x}")
    if n_frames < 1:
        raise TransportError("RPT1 blob has no frames")
    frames: list[_Frame] = []
    off = _HEADER.size
    total_raw = 0
    for idx in range(n_frames):
        if off + _FRAME.size > view.nbytes:
            raise TransportError("truncated frame header")
        kind, codec, param, crc, raw_len, stored_len = _FRAME.unpack_from(view, off)
        off += _FRAME.size
        if off + stored_len > view.nbytes:
            raise TransportError("frame stored bytes run past end of blob")
        stored = view[off : off + stored_len]
        off += stored_len
        if kind == KIND_PICKLE:
            if idx != 0:
                raise TransportError("payload frame must be frame 0")
        elif kind == KIND_BUFFER:
            if idx == 0:
                raise TransportError("frame 0 must be the payload frame")
        elif kind == KIND_REF:
            if idx == 0:
                raise TransportError("frame 0 must be the payload frame")
            if codec != 0 or param != 0:
                raise TransportError("ref frame carries a codec")
            if stored_len != 20:
                raise TransportError("ref frame payload must be 20 bytes")
        else:
            raise TransportError(f"unknown frame kind {kind}")
        if kind != KIND_REF:
            if codec == CODEC_RLE:
                if param not in _DTYPES or raw_len % param:
                    raise TransportError(f"bad rle stride {param}")
            elif codec in (CODEC_RAW, CODEC_ZLIB):
                if param != 0:
                    raise TransportError("raw/zlib frame carries a stride")
            else:
                raise TransportError(f"unknown codec {codec}")
        total_raw += raw_len
        frames.append(_Frame(kind, codec, param, crc, raw_len, stored))
    if off != view.nbytes:
        raise TransportError("trailing bytes after last frame")
    if total_raw != logical_bytes:
        raise TransportError("logical byte total does not match frames")
    return _Parsed(blob, bytes(digest), logical_bytes, frames)


class BufferStore:
    """Registry of parsed blobs keyed by digest prefix.

    Resume paths register every prior stage's blob (chain order), then
    ``loads`` the final stage; ref frames resolve through the store.
    Materialised buffers are handed to the resumed VM, which mutates
    them in place, so the store never caches decoded data — only the
    parsed (zero-copy) frame tables.
    """

    def __init__(self) -> None:
        self._blobs: dict[bytes, _Parsed] = {}

    def __len__(self) -> int:
        return len(self._blobs)

    def add_blob(self, blob: bytes) -> str:
        """Register a blob for later ref resolution; returns its digest.

        First registration wins: when a chain stage's state is
        identical to its base, the delta blob is all refs but carries
        the *same* logical digest as the base — the base's directly
        resolvable frames must keep serving that digest.
        """
        parsed = _parse(blob)
        self._blobs.setdefault(parsed.digest[:16], parsed)
        return parsed.digest.hex()

    def get(self, digest_hex: str) -> _Parsed:
        key = bytes.fromhex(digest_hex)[:16]
        try:
            return self._blobs[key]
        except KeyError:
            raise TransportError(
                f"base blob {digest_hex[:16]} not registered in store"
            ) from None

    def _resolve(self, frame: _Frame) -> _Frame:
        """Terminal frame a ref points at (refs are flattened at dump)."""
        id16 = bytes(frame.stored[:16])
        (idx,) = _REF_IDX.unpack(frame.stored[16:20])
        base = self._blobs.get(id16)
        if base is None:
            raise TransportError(f"ref to unknown blob {id16.hex()}")
        if not 0 < idx < len(base.frames):
            raise TransportError(f"ref to out-of-range frame {idx}")
        target = base.frames[idx]
        if target.kind == KIND_REF:
            raise TransportError("ref chains must be flattened at dump time")
        if target.raw_len != frame.raw_len:
            raise TransportError("ref length does not match its target")
        return target


def _pick_stride(mv: memoryview) -> int:
    """Widest element stride whose sampled RLE clears the ratio bar."""
    n = mv.nbytes
    m = min(n, SAMPLE_BYTES)
    best_stride = 0
    best_ratio = RLE_SAMPLE_RATIO
    for stride in (8, 4, 2, 1):
        if n % stride:
            continue
        k = m - (m % stride)
        if k < 2 * stride:
            continue
        view = np.frombuffer(mv[:k], dtype=_DTYPES[stride])
        runs = int(np.count_nonzero(view[1:] != view[:-1])) + 1
        ratio = (_RLE_RUNS.size + runs * (stride + 4)) / k
        if ratio <= best_ratio:
            best_ratio = ratio
            best_stride = stride
    return best_stride


def _rle_encode(mv: memoryview, stride: int) -> bytes | None:
    view = np.frombuffer(mv, dtype=_DTYPES[stride])
    if view.size == 0:
        return None
    idx = np.flatnonzero(view[1:] != view[:-1])
    n_runs = idx.size + 1
    starts = np.empty(n_runs, dtype=np.int64)
    starts[0] = 0
    starts[1:] = idx + 1
    lengths = np.empty(n_runs, dtype=np.int64)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1] = view.size - starts[-1]
    if int(lengths.max()) >= 1 << 32:
        return None
    return b"".join(
        (
            _RLE_RUNS.pack(n_runs),
            view[starts].tobytes(),
            lengths.astype(np.uint32).tobytes(),
        )
    )


def _rle_decode(stored: memoryview, stride: int, raw_len: int) -> np.ndarray:
    if len(stored) < _RLE_RUNS.size:
        raise TransportError("rle frame shorter than its run count")
    (n_runs,) = _RLE_RUNS.unpack_from(stored, 0)
    if _RLE_RUNS.size + n_runs * (stride + 4) != len(stored):
        raise TransportError("rle frame size does not match its run count")
    values = np.frombuffer(stored, dtype=_DTYPES[stride], count=n_runs, offset=8)
    lengths = np.frombuffer(
        stored, dtype=np.uint32, count=n_runs, offset=8 + n_runs * stride
    )
    out = np.repeat(values, lengths)
    if out.nbytes != raw_len:
        raise TransportError("rle frame decodes to the wrong length")
    return out


def _encode_body(mv: memoryview) -> tuple[int, int, Any]:
    """Canonical codec ladder: ``(codec, param, stored)`` for one buffer.

    Pure function of the buffer's content, so equal bytes always yield
    equal frames — the property delta detection relies on.
    """
    n = mv.nbytes
    if n < MIN_ENCODE:
        return CODEC_RAW, 0, mv
    stride = _pick_stride(mv)
    if stride:
        stored = _rle_encode(mv, stride)
        if stored is not None and len(stored) <= RLE_KEEP_RATIO * n:
            return CODEC_RLE, stride, stored
    if n > SAMPLE_BYTES:
        sampled = zlib.compress(mv[:SAMPLE_BYTES], ZLIB_LEVEL)
        if len(sampled) > ZLIB_SAMPLE_RATIO * SAMPLE_BYTES:
            return CODEC_RAW, 0, mv
    stored = zlib.compress(mv, ZLIB_LEVEL)
    if len(stored) <= ZLIB_KEEP_RATIO * n:
        return CODEC_ZLIB, 0, stored
    return CODEC_RAW, 0, mv


def _decode_body(frame: _Frame, writable: bool) -> Any:
    """Materialise one frame.  Buffers handed back to pickle must be
    writable (resumed VMs mutate their columns in place); the payload
    frame can stay a zero-copy view."""
    if frame.codec == CODEC_RAW:
        return bytearray(frame.stored) if writable else frame.stored
    if frame.codec == CODEC_ZLIB:
        try:
            out = zlib.decompress(frame.stored)
        except zlib.error as exc:
            raise TransportError(f"zlib frame failed to inflate: {exc}") from exc
        if len(out) != frame.raw_len:
            raise TransportError("zlib frame inflates to the wrong length")
        return bytearray(out) if writable else out
    return _rle_decode(frame.stored, frame.param, frame.raw_len)


def _logical_digest(encodings) -> bytes:
    """sha256 over terminal ``(codec, param, raw_len, stored)`` rows."""
    h = hashlib.sha256()
    h.update(MAGIC)
    h.update(bytes((VERSION,)))
    for codec, param, raw_len, stored in encodings:
        h.update(_DIGEST_FRAME.pack(codec, param, raw_len))
        h.update(stored)
    return h.digest()


def dumps(obj: Any, *, store: BufferStore | None = None,
          base: str | None = None) -> bytes:
    """Serialize ``obj`` into an RPT1 blob.

    With ``store`` and ``base`` (the digest of a previously registered
    blob), buffers whose canonical encoding matches a base frame are
    written as 20-byte ref frames — the delta checkpoint path.
    """
    buffers: list[memoryview] = []

    def keep_oob(pb: pickle.PickleBuffer) -> bool:
        try:
            buffers.append(pb.raw())
        except BufferError:
            return True  # non-contiguous: let pickle copy it in-band
        return False

    payload = pickle.dumps(obj, protocol=5, buffer_callback=keep_oob)

    base_small: dict[tuple[int, int, int, bytes], tuple[bytes, int]] = {}
    base_raw: list[tuple[int, memoryview, tuple[bytes, int]]] = []
    if base is not None:
        if store is None:
            raise TransportError("delta dumps needs a buffer store")
        parsed = store.get(base)
        for idx, fr in enumerate(parsed.frames):
            if idx == 0:
                continue
            if fr.kind == KIND_REF:
                target = store._resolve(fr)
                ref = (bytes(fr.stored[:16]), _REF_IDX.unpack(fr.stored[16:20])[0])
            else:
                target = fr
                ref = (parsed.digest[:16], idx)
            if target.codec == CODEC_RAW:
                base_raw.append((target.raw_len, target.stored, ref))
            else:
                base_small[
                    (target.codec, target.param, target.raw_len,
                     bytes(target.stored))
                ] = ref

    # (kind, codec, param, raw_len, stored, terminal-encoding-for-digest)
    frames: list[tuple[int, int, int, int, Any, tuple]] = []
    pcodec, pparam, pstored = _encode_body(memoryview(payload))
    frames.append(
        (KIND_PICKLE, pcodec, pparam, len(payload), pstored,
         (pcodec, pparam, len(payload), pstored))
    )
    for mv in buffers:
        codec, param, stored = _encode_body(mv)
        ref = None
        if codec == CODEC_RAW:
            for raw_len, base_stored, candidate in base_raw:
                if raw_len == mv.nbytes and base_stored == stored:
                    ref = candidate
                    break
        elif base_small:
            ref = base_small.get((codec, param, mv.nbytes, bytes(stored)))
        if ref is None:
            frames.append(
                (KIND_BUFFER, codec, param, mv.nbytes, stored,
                 (codec, param, mv.nbytes, stored))
            )
        else:
            ref_stored = ref[0] + _REF_IDX.pack(ref[1])
            frames.append(
                (KIND_REF, 0, 0, mv.nbytes, ref_stored,
                 (codec, param, mv.nbytes, stored))
            )

    if len(frames) > 0xFFFF:
        raise TransportError(f"too many frames ({len(frames)})")
    logical = sum(f[3] for f in frames)
    digest = _logical_digest(f[5] for f in frames)
    parts: list[Any] = [
        _HEADER.pack(MAGIC, VERSION, 0, len(frames), logical, digest)
    ]
    for kind, codec, param, raw_len, stored, _enc in frames:
        parts.append(
            _FRAME.pack(kind, codec, param, zlib.crc32(stored), raw_len,
                        len(stored))
        )
        parts.append(stored)
    return b"".join(parts)


def _verify(parsed: _Parsed, store: BufferStore | None) -> list[_Frame]:
    """CRC every frame, resolve refs, and recompute the logical digest.
    Returns the terminal frame per slot, ready to decode."""
    terminals: list[_Frame] = []
    encodings = []
    for fr in parsed.frames:
        if zlib.crc32(fr.stored) != fr.crc:
            raise TransportError("frame crc mismatch")
        if fr.kind == KIND_REF:
            if store is None:
                raise TransportError("delta blob needs a buffer store to load")
            target = store._resolve(fr)
            if zlib.crc32(target.stored) != target.crc:
                raise TransportError("ref target crc mismatch")
        else:
            target = fr
        terminals.append(target)
        encodings.append((target.codec, target.param, target.raw_len,
                          target.stored))
    if _logical_digest(encodings) != parsed.digest:
        raise TransportError("logical digest mismatch")
    return terminals


def loads(blob: bytes, *, store: BufferStore | None = None) -> Any:
    """Reconstruct the object from an RPT1 blob.

    Delta blobs need the ``store`` holding every base blob they
    reference.  All buffers handed to pickle are freshly writable.
    """
    parsed = _parse(blob)
    terminals = _verify(parsed, store)
    payload = _decode_body(terminals[0], writable=False)
    bufs = [_decode_body(fr, writable=True) for fr in terminals[1:]]
    try:
        return pickle.loads(payload, buffers=bufs)
    except TypeError:
        # memoryview payloads confuse some picklers' buffer fast path
        return pickle.loads(bytes(payload), buffers=bufs)


def blob_digest(blob: bytes) -> str:
    """Logical state digest straight from the header (no decode)."""
    if len(blob) < _HEADER.size or bytes(blob[:4]) != MAGIC:
        raise TransportError("not an RPT1 blob")
    return _HEADER.unpack_from(memoryview(blob), 0)[5].hex()


def peek_logical_bytes(head: bytes) -> int | None:
    """Logical byte count from a blob's first 48 bytes, or ``None`` if
    the header is not framed/complete.  Used by cache stats sweeps."""
    if len(head) < _HEADER.size or bytes(head[:4]) != MAGIC:
        return None
    try:
        magic, version, _flags, _n, logical, _digest = _HEADER.unpack_from(
            memoryview(head), 0
        )
    except struct.error:
        return None
    if magic != MAGIC or version != VERSION:
        return None
    return logical


def blob_info(blob: bytes) -> dict[str, Any]:
    """Frame-level stats for benches and ``cache stats`` breakdowns."""
    parsed = _parse(blob)
    codec_names = {CODEC_RAW: "raw", CODEC_ZLIB: "zlib", CODEC_RLE: "rle"}
    codecs: dict[str, int] = {}
    refs = 0
    for fr in parsed.frames:
        if fr.kind == KIND_REF:
            refs += 1
        else:
            name = codec_names[fr.codec]
            codecs[name] = codecs.get(name, 0) + 1
    return {
        "version": VERSION,
        "n_frames": len(parsed.frames),
        "logical_bytes": parsed.logical_bytes,
        "stored_bytes": len(blob),
        "ref_frames": refs,
        "codec_frames": codecs,
        "digest": parsed.digest.hex(),
    }
