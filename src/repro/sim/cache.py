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
counted in ``write_failures`` instead of failing the run.

Sharing a cache is sharing its directory: copy it (``cp -r``,
``rsync``) or point every run's root at one shared filesystem.  Keys
are content addresses and stores are atomic renames, so no entry is
ever served half-written or under the wrong code.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import struct
import tempfile
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

    def __init__(self, root: str | Path | None = None, salt: str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = code_version_salt() if salt is None else salt
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_evictions = 0
        self.write_failures = 0

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
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            # Absent, or a path component is a file (an unwritable
            # root): no entry can be there, so nothing to quarantine.
            self.misses += 1
            return MISS
        except OSError:
            self._quarantine(key, path)
            self.misses += 1
            return MISS
        try:
            value = transport.loads(blob)
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

    def put(self, key: str, value: Any) -> None:
        """Store a result under ``key`` as a framed RPT1 blob."""
        self.put_encoded(key, transport.dumps(value))

    def put_encoded(self, key: str, blob: bytes) -> None:
        """Store already-framed bytes under ``key`` (atomic rename; last
        writer wins).  The executor's pool path hands worker-encoded
        blobs straight through, so results are framed exactly once.

        A failed disk write (full disk, permissions, a file where the
        root should be) degrades to "not cached" — counted in
        ``write_failures`` — because a cache must never turn a computed
        result into an error.
        """
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            self.write_failures += 1
            return
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
            return
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

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
        :meth:`get`), so a long-lived cache keeps its hot working set
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
