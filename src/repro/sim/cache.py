"""Content-addressed on-disk cache for experiment run cells.

Every run cell (see :mod:`repro.sim.jobs`) is a pure function of its
spec: the machines it builds are seeded from the spec's config and the
workloads from their seeds, so the cell's result can be memoized on
disk and reused — across repeated invocations *and* across sibling
experiments that sweep the same (workload, policy) grid.

The cache key is ``sha256(code_salt + canonical-JSON(spec))``:

- the *canonical JSON* covers the cell's function path and every
  keyword argument (dataclasses such as :class:`ScaleProfile`,
  :class:`RunOptions` or :class:`HardwareConfig` are encoded field by
  field, tagged with their import path, so any field change — or a
  changed default — produces a new key);
- the *code salt* digests every ``*.py`` file of the installed
  ``repro`` package, so any edit to the simulator invalidates the whole
  cache rather than serving results computed by different code.  A
  re-run after an edit *outside* the package (docs, tests, notebooks)
  still hits.

Entries are result objects framed as RPT1 blobs
(:mod:`repro.sim.transport`) stored under
``<root>/<key[:2]>/<key>.pkl`` with atomic rename, so concurrent
writers (parallel suite runs) can share one cache directory safely.

Corrupted, truncated or otherwise unreadable entries are treated as
misses, **quarantined** (moved to ``<root>/quarantine/<key>.bad`` so
they can never be served again but stay inspectable) and counted in
``corrupt_evictions``; failed writes degrade to "not cached" and are
counted in ``write_failures`` instead of failing the run.  Both paths
double as chaos injection sites (``cache.read`` corrupts the entry on
disk before the read so the real quarantine machinery runs;
``cache.write`` drops the store) — see :mod:`repro.chaos`.

A cache can additionally **federate** through a shared HTTP tier
(:class:`HttpCacheTier`, served by ``repro serve`` at
``/v1/cache/<key>``): local misses read through the tier and fill the
local disk (L1), local stores write through, and the tier's
single-writer promotion (``PUT`` of an existing key is a no-op)
guarantees each spec digest is published exactly once fleet-wide.  The
tier is strictly best-effort: any network or protocol failure counts in
``tier_errors`` and degrades to a plain local miss/store, never an
error in the run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import http.client
import json
import os
import pickle
import struct
import tempfile
import urllib.parse
import zlib
from pathlib import Path
from typing import Any

from repro.sim import transport

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


@functools.lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of the installed ``repro`` package's source files.

    Any change to simulator code changes the salt and therefore every
    cache key; results computed by old code are never served.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def encode_spec(value: Any) -> Any:
    """Recursively encode a cell-spec value into canonical JSON data.

    Supported: JSON primitives, tuples/lists, dicts with string keys,
    dataclasses (tagged with their import path so two dataclasses with
    identical fields but different meaning never collide), and numpy
    scalars.  Anything else raises ``TypeError`` — cell specs must stay
    simple enough to hash reproducibly.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_spec(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"cell-spec dict keys must be str, got {key!r}")
            out[key] = encode_spec(item)
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        encoded = {
            field.name: encode_spec(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        encoded["__dataclass__"] = f"{cls.__module__}:{cls.__qualname__}"
        return encoded
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        return encode_spec(value.item())
    raise TypeError(
        f"cell specs may only hold primitives, sequences, dicts and "
        f"dataclasses; got {type(value).__name__}: {value!r}"
    )


def spec_digest(spec: Any, salt: str) -> str:
    """Content address of an encoded spec under a code salt."""
    canonical = json.dumps(
        encode_spec(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256((salt + "\0" + canonical).encode()).hexdigest()


class HttpCacheTier:
    """Client for the shared blob tier exposed by ``repro serve``.

    Speaks plain HTTP/1.1 over :mod:`http.client` (one connection per
    operation — the server closes after each response anyway):

    - ``GET /v1/cache/<key>`` → 200 + blob, or 404;
    - ``PUT /v1/cache/<key>`` → 201 (stored) or 200 (already present —
      the tier keeps the first writer's copy, so a digest is published
      once globally).

    Blobs are framed RPT1 bytes in both directions; the server rejects
    a PUT body that does not parse as one.  ``bytes_sent``/
    ``bytes_received`` count body bytes on the wire.

    Every failure mode — connection refused, timeout, protocol garbage,
    unexpected status — increments ``errors`` and returns ``None``; the
    owning :class:`RunCache` then behaves as if no tier existed.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"cache tier URL must be http://, got {base_url!r}")
        netloc = parts.netloc or parts.path
        if not netloc:
            raise ValueError(f"cache tier URL needs a host, got {base_url!r}")
        self.host = netloc.rpartition(":")[0] if ":" in netloc else netloc
        self.port = int(netloc.rpartition(":")[2]) if ":" in netloc else 80
        self.base_path = (parts.path if parts.netloc else "").rstrip("/")
        self.timeout = timeout
        self.gets = 0
        self.puts = 0
        self.errors = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def _request(self, method: str, key: str, body: bytes | None = None):
        """One request/response; returns ``(status, body)`` or ``None``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request(method, f"{self.base_path}/v1/cache/{key}",
                         body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.errors += 1
            return None
        finally:
            conn.close()

    def get(self, key: str) -> bytes | None:
        """Fetch a blob from the tier; ``None`` on miss or failure."""
        self.gets += 1
        out = self._request("GET", key)
        if out is None:
            return None
        status, data = out
        if status != 200:
            return None
        self.bytes_received += len(data)
        return data

    def put(self, key: str, blob: bytes) -> str | None:
        """Publish a blob; ``"stored"``, ``"exists"`` or ``None``."""
        self.puts += 1
        self.bytes_sent += len(blob)
        out = self._request("PUT", key, body=blob)
        if out is None:
            return None
        status, _ = out
        if status == 201:
            return "stored"
        if status == 200:
            return "exists"
        self.errors += 1
        return None


class RunCache:
    """On-disk content-addressed store of cell results.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first store).
    salt:
        Code-version salt mixed into every key; defaults to
        :func:`code_version_salt`.  Tests inject fixed salts to model
        code edits without editing code.
    injector:
        Optional :class:`~repro.chaos.FaultInjector` driving the
        ``cache.read`` / ``cache.write`` fault sites; ``None`` (the
        default) leaves the hot path untouched.
    tier:
        Optional shared tier (:class:`HttpCacheTier` or anything with
        its ``get``/``put`` shape).  Local misses read through it and
        fill the local disk; local stores write through.  Best-effort
        only — tier failures never fail the run.
    """

    #: Errors that mean "the entry exists but cannot be deserialized".
    #: ``transport.TransportError`` is a ``ValueError`` (frame-header,
    #: CRC, and digest mismatches); ``zlib.error``/``struct.error``
    #: cover inflate failures and mangled frame headers that surface
    #: below the transport's own checks.
    CORRUPTION_ERRORS = (
        OSError, pickle.UnpicklingError, EOFError, AttributeError,
        ImportError, IndexError, ValueError, TypeError,
        UnicodeDecodeError, zlib.error, struct.error,
    )

    def __init__(self, root: str | Path | None = None, salt: str | None = None,
                 injector=None, tier=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = code_version_salt() if salt is None else salt
        self.injector = injector
        self.tier = tier
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_evictions = 0
        self.write_failures = 0
        self.tier_hits = 0
        self.tier_misses = 0
        self.tier_stores = 0
        self.tier_errors = 0

    def path_for(self, key: str) -> Path:
        """Where a key's entry lives (two-level fan-out like git)."""
        return self.root / key[:2] / f"{key}.pkl"

    def quarantine_path_for(self, key: str) -> Path:
        """Where a corrupt entry is parked (``.bad`` so no glob serves it)."""
        return self.root / "quarantine" / f"{key}.bad"

    def _quarantine(self, key: str, path: Path) -> None:
        """Evict a corrupt entry: move it aside, or delete it."""
        self.corrupt_evictions += 1
        target = self.quarantine_path_for(key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - nothing more we can do
                pass

    def get(self, key: str) -> Any:
        """The cached result for ``key``, or :data:`MISS`.

        A hit refreshes the entry's mtime, so :meth:`prune`'s
        oldest-first eviction is least-*recently-used*, not
        least-recently-written.  An entry that exists but cannot be
        read back (corrupt, truncated, wrong permissions) is
        quarantined and reported as a miss — a bad file must never
        raise out of the cache layer or be served twice.
        """
        path = self.path_for(key)
        if self.injector is not None:
            record = self.injector.fire("cache.read", key)
            if record is not None:
                if path.exists():
                    # Garble the real entry so the genuine corruption
                    # handling below (quarantine + miss) is exercised:
                    # one byte flipped deep in the blob, which the
                    # transport's CRC/digest coverage must catch.
                    try:
                        data = path.read_bytes()
                        if data:
                            path.write_bytes(
                                data[:-1] + bytes((data[-1] ^ 0xFF,))
                            )
                    except OSError:
                        pass
                    self.injector.recover(record, "quarantined")
                else:
                    self.injector.recover(record, "already_miss")
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return self._tier_get(key, path)
        except OSError:
            self._quarantine(key, path)
            self.misses += 1
            return MISS
        try:
            value = self.decode_blob(blob)
        except self.CORRUPTION_ERRORS:
            self._quarantine(key, path)
            self.misses += 1
            return MISS
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away; still a hit
            pass
        self.hits += 1
        return value

    def _tier_get(self, key: str, path: Path) -> Any:
        """Local miss: read through the shared tier, fill the L1.

        A tier blob that will not decode counts as a ``tier_error``
        and stays out of the local store; a clean fetch fills the local
        disk (so the next read is local) and counts as a hit.
        """
        if self.tier is None:
            self.misses += 1
            return MISS
        blob = self.tier.get(key)
        if blob is None:
            self.tier_misses += 1
            self.misses += 1
            return MISS
        try:
            value = self.decode_blob(blob)
        except self.CORRUPTION_ERRORS:
            self.tier_errors += 1
            self.misses += 1
            return MISS
        self.tier_hits += 1
        self.write_blob(key, blob)
        self.hits += 1
        return value

    def read_blob(self, key: str) -> bytes | None:
        """Raw bytes of a local entry (the serve-side GET route).

        Refreshes the entry's mtime like :meth:`get` so tier reads keep
        hot blobs out of :meth:`prune`'s way, but never deserializes —
        the server moves blobs, only clients unpickle them.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self._quarantine(key, path)
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        return blob

    def write_blob(self, key: str, blob: bytes,
                   overwrite: bool = True) -> str:
        """Store raw bytes under ``key`` (atomic rename).

        Returns ``"stored"``, ``"exists"`` (only with
        ``overwrite=False`` — the serve-side single-writer promotion:
        the first PUT of a digest wins and later ones are no-ops) or
        ``"failed"`` (counted in ``write_failures``).
        """
        path = self.path_for(key)
        if not overwrite and path.exists():
            return "exists"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            self.write_failures += 1
            return "failed"
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            self.write_failures += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return "failed"
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        return "stored"

    @staticmethod
    def encode_value(value: Any) -> bytes:
        """A value's on-disk form: a framed RPT1 blob."""
        return transport.dumps(value)

    @staticmethod
    def decode_blob(blob: bytes) -> Any:
        """Decode a framed RPT1 entry (CRC + digest verified).  Anything
        else raises :class:`~repro.sim.transport.TransportError`."""
        return transport.loads(blob)

    def put(self, key: str, value: Any) -> None:
        """Store a result under ``key`` (atomic; last writer wins).

        A failed disk write (full disk, permissions, injected
        ``cache.write`` fault) degrades to "not cached" — counted in
        ``write_failures`` — because a cache must never turn a
        computed result into an error.  With a tier attached the blob
        also writes through (best effort; the tier keeps the first
        writer's copy).
        """
        if self.injector is not None:
            record = self.injector.fire("cache.write", key)
            if record is not None:
                self.write_failures += 1
                self.injector.recover(record, "dropped_write")
                return
        self._put_blob(key, self.encode_value(value))

    def put_encoded(self, key: str, blob: bytes) -> None:
        """Store an already-framed blob (the executor's pool path hands
        worker-encoded blobs straight through so results are framed
        exactly once).  Same fault-site and write-through semantics as
        :meth:`put`."""
        if self.injector is not None:
            record = self.injector.fire("cache.write", key)
            if record is not None:
                self.write_failures += 1
                self.injector.recover(record, "dropped_write")
                return
        self._put_blob(key, blob)

    def _put_blob(self, key: str, blob: bytes) -> None:
        self.write_blob(key, blob)
        if self.tier is not None:
            if self.tier.put(key, blob) is None:
                self.tier_errors += 1
            else:
                self.tier_stores += 1

    def _entries(self) -> list[tuple[Path, float, int]]:
        """``(path, mtime, size_bytes)`` per entry, oldest first.

        Entries that vanish mid-scan (a concurrent prune or clear) are
        skipped rather than raising.
        """
        out = []
        if not self.root.exists():
            return out
        for path in self.root.glob("*/*.pkl"):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((path, st.st_mtime, st.st_size))
        out.sort(key=lambda e: (e[1], str(e[0])))
        return out

    def stats(self) -> dict:
        """Size and age summary of the on-disk store (JSON-ready).

        One ``scandir`` sweep over the store covers both live entries
        and the quarantine — on big caches the old two-pass
        (glob-and-sort plus a second quarantine glob) dominated the
        ``cache stats`` command.  Files that vanish mid-scan (a
        concurrent prune or clear) are skipped rather than raising.

        Each live entry's first 48 bytes are peeked for its *logical*
        (pre-compression) size from the RPT1 header, so the framed
        breakdown carries an honest compression ratio.  An entry whose
        header does not parse counts toward ``entries`` and
        ``total_bytes`` only; the next read quarantines it.
        """
        entries = 0
        total = 0
        oldest: float | None = None
        newest: float | None = None
        quarantined = 0
        quarantined_bytes = 0
        framed_entries = 0
        framed_bytes = 0
        logical_bytes = 0
        try:
            subdirs = list(os.scandir(self.root))
        except OSError:
            subdirs = []
        for sub in subdirs:
            if not sub.is_dir():
                continue
            is_quarantine = sub.name == "quarantine"
            suffix = ".bad" if is_quarantine else ".pkl"
            try:
                files = list(os.scandir(sub.path))
            except OSError:
                continue
            for entry in files:
                if not entry.name.endswith(suffix):
                    continue
                try:
                    st = entry.stat()
                except OSError:
                    continue
                if is_quarantine:
                    quarantined += 1
                    quarantined_bytes += st.st_size
                else:
                    entries += 1
                    total += st.st_size
                    mtime = st.st_mtime
                    if oldest is None or mtime < oldest:
                        oldest = mtime
                    if newest is None or mtime > newest:
                        newest = mtime
                    logical = None
                    try:
                        with open(entry.path, "rb") as fh:
                            logical = transport.peek_logical_bytes(
                                fh.read(48)
                            )
                    except OSError:
                        pass
                    if logical is not None:
                        framed_entries += 1
                        framed_bytes += st.st_size
                        logical_bytes += logical
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "corrupt_evictions": self.corrupt_evictions,
            "write_failures": self.write_failures,
            "quarantined": quarantined,
            "quarantined_bytes": quarantined_bytes,
            "framed_entries": framed_entries,
            "framed_bytes": framed_bytes,
            "logical_bytes": logical_bytes,
            "compression_ratio": (
                logical_bytes / framed_bytes if framed_bytes else 1.0
            ),
        }

    def prune(self, max_bytes: int) -> dict:
        """Evict least-recently-used entries until <= ``max_bytes``.

        Eviction is oldest-mtime-first (reads refresh mtime, see
        :meth:`get`), so a long-lived server keeps its hot working set
        while the cold tail is reclaimed.  Returns a JSON-ready summary
        of what was removed and what remains.

        The walk races against concurrent readers and pruners by
        design: each candidate is re-``stat``-ed immediately before the
        unlink, so an entry a concurrent :meth:`get` just refreshed is
        recognized as hot and skipped rather than evicted on its stale
        scan-time mtime, and an entry that vanished (another pruner, a
        :meth:`clear`) is skipped rather than raising.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self._entries()
        total = sum(size for _, _, size in entries)
        removed = 0
        freed = 0
        for path, mtime, size in entries:
            if total - freed <= max_bytes:
                break
            try:
                st = path.stat()
            except OSError:
                # Vanished since the scan — already freed by someone
                # else; its bytes no longer count against the budget.
                freed += size
                continue
            if st.st_mtime > mtime:
                continue  # refreshed by a concurrent get(): hot, keep it
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_entries": len(entries) - removed,
            "remaining_bytes": total - freed,
            "max_bytes": max_bytes,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
