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
        #: (index, pfn) pairs populated by the most recent miss — lets
        #: the hypervisor back exactly the new frames without scanning.
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

    def read(self, file: CachedFile, index: int, allocate) -> int:
        """Access page ``index`` of ``file``; returns its PFN.

        A miss triggers readahead: the window of
        ``readahead_pages`` starting at the faulting index (clamped to
        the file) is populated in one allocation request so the policy
        can place it contiguously, and recorded with one runs update per
        stretch of consecutive frames (counted as per-page adds; see
        :meth:`MappingRuns.add_stretch`).
        """
        if not 0 <= index < file.n_pages:
            raise AddressSpaceError(
                f"index {index} outside file of {file.n_pages} pages"
            )
        pfn = file.pages.get(index)
        if pfn is not None:
            self.last_fill = []
            return pfn
        self.fault_count += 1
        window = min(self.readahead_pages, file.n_pages - index)
        # Do not re-read pages already resident inside the window.
        n = 0
        while n < window and (index + n) not in file.pages:
            n += 1
        pfns = allocate(file, index, n)
        if len(pfns) != n:
            raise AddressSpaceError(
                f"allocator returned {len(pfns)} frames for a {n}-page readahead"
            )
        self.readahead_count += max(0, n - 1)
        inode = file.inode
        indices = range(index, index + n)
        file.pages.update(zip(indices, pfns))
        self.frame_owner.update(
            (frame, (inode, i)) for i, frame in zip(indices, pfns)
        )
        runs = self.runs[inode]
        for i, k in frame_stretches(pfns):
            runs.add_stretch(index + i, pfns[i], k)
        self.last_fill = list(zip(indices, pfns))
        return pfns[0]

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
