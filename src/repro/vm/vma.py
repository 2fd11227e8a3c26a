"""Virtual memory areas with CA paging's per-VMA offset metadata.

The only metadata CA paging adds to Linux's ``vm_area_struct`` is a
small FIFO of *Offsets*: each entry remembers the ``vpn − pfn`` offset
chosen by a placement decision together with the virtual address of the
fault that created it.  On a fault the policy picks the offset whose
recorded fault address is closest to the faulting address (paper
§III-C, "dealing with external fragmentation"); the FIFO is bounded (64
entries in the paper) to keep the search cheap.

Multithreaded fault races are modelled with the paper's atomic
``replacement`` flag: only one logical thread may trigger a
re-placement at a time (others retry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.vm.flags import VmaFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.page_cache import CachedFile

#: Paper bound on per-VMA offsets.
MAX_OFFSETS = 64


@dataclass
class VmaOffset:
    """One CA placement decision: offset chosen at a given fault address."""

    fault_vpn: int
    offset: int  # vpn - pfn, in pages


class Vma:
    """A contiguous virtual address range of a process."""

    __slots__ = (
        "start_vpn",
        "n_pages",
        "flags",
        "name",
        "file",
        "offsets",
        "max_offsets",
        "replacement_in_progress",
        "mapped_pages",
    )

    def __init__(
        self,
        start_vpn: int,
        n_pages: int,
        flags: VmaFlags,
        name: str = "",
        file: "CachedFile | None" = None,
        max_offsets: int = MAX_OFFSETS,
    ):
        self.start_vpn = start_vpn
        self.n_pages = n_pages
        self.flags = flags
        self.name = name
        self.file = file
        #: FIFO of CA placement offsets (newest last).
        self.offsets: list[VmaOffset] = []
        self.max_offsets = max_offsets
        #: The paper's atomic flag: a re-placement is underway.
        self.replacement_in_progress = False
        #: Pages of this VMA currently backed by frames (bookkeeping).
        self.mapped_pages = 0

    @property
    def end_vpn(self) -> int:
        """One past the last page of the area."""
        return self.start_vpn + self.n_pages

    def contains(self, vpn: int) -> bool:
        """True when ``vpn`` falls inside the area."""
        return self.start_vpn <= vpn < self.end_vpn

    @property
    def unmapped_pages(self) -> int:
        """Pages not yet backed by frames."""
        return self.n_pages - self.mapped_pages

    # -- CA offset metadata -----------------------------------------------

    def record_offset(self, fault_vpn: int, offset: int) -> None:
        """Push a new placement offset, evicting FIFO-style when full."""
        self.offsets.append(VmaOffset(fault_vpn, offset))
        if len(self.offsets) > self.max_offsets:
            self.offsets.pop(0)

    def pick_offset(self, vpn: int) -> VmaOffset | None:
        """The offset recorded closest (in VA) to the faulting address."""
        if not self.offsets:
            return None
        return min(self.offsets, key=lambda o: abs(o.fault_vpn - vpn))

    def try_begin_replacement(self) -> bool:
        """Atomically claim the right to run a re-placement decision."""
        if self.replacement_in_progress:
            return False
        self.replacement_in_progress = True
        return True

    def end_replacement(self) -> None:
        """Release the re-placement claim."""
        self.replacement_in_progress = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Vma({self.name or 'anon'}, vpn=[{self.start_vpn:#x},"
            f"{self.end_vpn:#x}), {self.n_pages}p)"
        )
