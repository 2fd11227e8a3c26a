"""File page cache with readahead and a per-file CA offset.

CA paging also steers the *readahead* allocations of the page cache:
each file (Linux ``struct address_space``) gets its own Offset so that
cached file pages land physically contiguous (paper §III-C, "supported
faults").  Scattered page-cache pages outlive processes and fragment
physical memory; contiguous ones restrain fragmentation — this is what
Fig. 9 measures after benchmark batches.

The cache here is intentionally small: files are identified by an
inode number, pages by index, and eviction is explicit (``drop``);
that is all the experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AddressSpaceError
from repro.vm.mapping_runs import MappingRuns, frame_stretches

#: Pages brought in around a faulting index by default (Linux-like window).
DEFAULT_READAHEAD_PAGES = 8


@dataclass
class CachedFile:
    """A file known to the page cache (``struct address_space`` analogue)."""

    inode: int
    n_pages: int
    name: str = ""
    #: CA paging per-file offset: file_index - pfn (None until first use).
    ca_offset: int | None = None
    #: index -> pfn of resident pages.
    pages: dict[int, int] = field(default_factory=dict)

    @property
    def resident_pages(self) -> int:
        """Number of cached pages of this file."""
        return len(self.pages)


class PageCache:
    """System-wide page cache.

    The cache does not allocate frames itself; the kernel passes an
    ``allocate(file, index, n_pages) -> list[pfn]`` callable so the
    active placement policy decides frame placement (CA steers it with
    the per-file offset).
    """

    def __init__(self, readahead_pages: int = DEFAULT_READAHEAD_PAGES):
        self.readahead_pages = readahead_pages
        self._files: dict[int, CachedFile] = {}
        #: (name, n_pages) -> first file registered under that identity;
        #: lets runs reopen shared inputs in O(1) instead of scanning
        #: every file (machines aged with many scratch files otherwise
        #: pay an O(#files) lookup per run).
        self._by_name: dict[tuple[str, int], CachedFile] = {}
        self._next_inode = 1
        #: runs of file-index -> pfn contiguity, per inode (diagnostics).
        self.runs: dict[int, MappingRuns] = {}
        self.fault_count = 0
        self.readahead_count = 0
        #: (index, pfn) pairs claimed by the last window read (empty if
        #: it hit).  Nothing reads it; checkpoints pickle it, so it stays
        #: until they hold only semantic state (ROADMAP).
        self.last_fill: list[tuple[int, int]] = []
        #: Reverse map pfn -> (inode, index): which cached page owns a
        #: frame (migration/defragmentation support).
        self.frame_owner: dict[int, tuple[int, int]] = {}

    # -- file management -----------------------------------------------------

    def open(self, n_pages: int, name: str = "") -> CachedFile:
        """Register a file of ``n_pages`` with the cache."""
        if n_pages <= 0:
            raise AddressSpaceError(f"file of {n_pages} pages")
        file = CachedFile(self._next_inode, n_pages, name=name)
        self._files[file.inode] = file
        self._by_name.setdefault((name, n_pages), file)
        self.runs[file.inode] = MappingRuns()
        self._next_inode += 1
        return file

    def file(self, inode: int) -> CachedFile:
        """Look up a registered file."""
        return self._files[inode]

    def find(self, name: str, n_pages: int) -> CachedFile | None:
        """The first file opened as (name, n_pages), if any.

        Matches the registration-order semantics of scanning
        ``iter_files`` — the earliest matching file wins — without the
        linear scan.
        """
        return self._by_name.get((name, n_pages))

    def iter_files(self):
        """All registered files."""
        return iter(self._files.values())

    # -- access path -----------------------------------------------------------

    def read(self, file: CachedFile, index: int, allocate, n_pages: int = 1,
             free_pages: int = 0) -> list[tuple[int, int]]:
        """Read pages ``[index, index + n_pages)`` of ``file``.

        Returns the ``(index, pfn)`` pairs the read brought into the
        cache, in claim order (empty when every window hit).

        The range is served in readahead windows on the grid ``index``,
        ``index + W``, ... (``W = readahead_pages``).  A window whose
        first page is resident is a hit; otherwise it claims the prefix
        of its pages that are not resident yet, up to ``W`` pages and the
        file's end, so the last window may run past the range.  A claim
        is one ``allocate(file, start, n) -> list[pfn]`` request, so the
        policy can place it contiguously, recorded with one runs update
        per stretch of consecutive frames (counted as per-page adds; see
        :meth:`MappingRuns.add_stretch`).

        ``free_pages`` is how many frames ``allocate`` can hand out
        without reclaiming.  When the whole range's claim fits in it,
        the claims of back-to-back windows merge into one request:
        windows do not overlap and nothing is evicted, so each window
        claims what it would have claimed alone, and the per-window
        claims computed up front stand.  Otherwise every window claims
        before the next one looks at the file, because a claim may
        reclaim cached pages, this file's included.

        ``last_fill`` ends as the last window's fill (empty on a hit).
        """
        if n_pages < 1 or not 0 <= index <= file.n_pages - n_pages:
            raise AddressSpaceError(
                f"read of {n_pages} pages at index {index} outside file "
                f"of {file.n_pages} pages"
            )
        window = self.readahead_pages
        starts = range(index, index + n_pages, window)
        claims = [self._window_claim(file, s) for s in starts]
        merge = sum(claims) <= free_pages
        fill: list[tuple[int, int]] = []
        seg_start = seg_n = 0
        for start, n in zip(starts, claims):
            if not merge:
                # An earlier window's claim may have reclaimed pages of
                # this file: look again.
                n = self._window_claim(file, start)
            if n:
                self.fault_count += 1
                self.readahead_count += n - 1
                if not seg_n:
                    seg_start = start
                seg_n += n
            # Only a full window's claim runs on into the next window's.
            if seg_n and not (merge and n == window):
                fill += self._claim(file, seg_start, seg_n, allocate)
                seg_n = 0
        if seg_n:
            fill += self._claim(file, seg_start, seg_n, allocate)
        self.last_fill = fill[len(fill) - n:] if n else []
        return fill

    def _window_claim(self, file: CachedFile, start: int) -> int:
        """Pages the readahead window at ``start`` claims (0 on a hit)."""
        pages = file.pages
        if start in pages:
            return 0
        end = min(start + self.readahead_pages, file.n_pages)
        n = 1
        while start + n < end and start + n not in pages:
            n += 1
        return n

    def _claim(self, file: CachedFile, start: int, n: int,
               allocate) -> list[tuple[int, int]]:
        """Allocate and install pages ``[start, start + n)`` of ``file``."""
        pfns = allocate(file, start, n)
        if len(pfns) != n:
            raise AddressSpaceError(
                f"allocator returned {len(pfns)} frames for a {n}-page readahead"
            )
        inode = file.inode
        fill = list(zip(range(start, start + n), pfns))
        file.pages.update(fill)
        self.frame_owner.update((frame, (inode, i)) for i, frame in fill)
        runs = self.runs[inode]
        for i, k in frame_stretches(pfns):
            runs.add_stretch(start + i, pfns[i], k)
        return fill

    def drop(self, file: CachedFile, release) -> int:
        """Evict every page of ``file``; returns the number of pages released.

        The file's maximal mapping runs are exactly its stretches of
        pages contiguous in both file index and frame, so each run is
        removed with one span update and its frames go back through one
        ``release(pfn, n)`` call, in index order: a CA-placed file is
        freed as a few frame spans, not page by page.  The runs'
        ``generation`` still advances as per-page removal would (see
        :meth:`MappingRuns.remove_stretches`).
        """
        for _, pfn, n in self.runs[file.inode].remove_stretches(0, file.n_pages):
            release(pfn, n)
        for pfn in file.pages.values():
            self.frame_owner.pop(pfn, None)
        count = len(file.pages)
        file.pages.clear()
        return count

    def move_page(self, old_pfn: int, new_pfn: int) -> bool:
        """Retarget a cached page to a new frame (migration support)."""
        owner = self.frame_owner.pop(old_pfn, None)
        if owner is None:
            return False
        inode, index = owner
        self.file(inode).pages[index] = new_pfn
        self.runs[inode].remove(index, 1)
        self.runs[inode].add(index, new_pfn, 1)
        self.frame_owner[new_pfn] = owner
        return True

    @property
    def resident_pages(self) -> int:
        """Total pages held by the cache."""
        return sum(f.resident_pages for f in self._files.values())
