"""Four-level radix page tables with 4 KiB and 2 MiB leaves.

Models x86-64 long-mode paging closely enough for the paper's purposes:
a 48-bit virtual address space translated through four levels of
512-entry tables (PGD → PUD → PMD → PT), with transparent-huge-page
leaves at the PMD level.  The same structure serves as the guest page
table (gVA→gPA) and the nested page table (gPA→hPA); the hardware
models in :mod:`repro.hw` consume :class:`WalkResult` to charge walk
latency and to read the contiguity bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import MappingError
from repro.units import HUGE_ORDER, HUGE_PAGES, is_aligned
from repro.vm.flags import PteFlags

#: Bits of VPN consumed per level (512-entry tables).
LEVEL_BITS = 9
LEVEL_FANOUT = 1 << LEVEL_BITS
#: Default number of radix levels (PGD, PUD, PMD, PT).  Five-level
#: paging (LA57: an extra PGD level, the paper's intro motivation for
#: even costlier nested walks) is supported per table instance.
LEVELS = 4


class Pte:
    """A leaf page table entry."""

    __slots__ = ("pfn", "flags")

    def __init__(self, pfn: int, flags: PteFlags):
        self.pfn = pfn
        self.flags = flags

    @property
    def present(self) -> bool:
        """True when the entry maps a frame."""
        return bool(self.flags & PteFlags.PRESENT)

    @property
    def huge(self) -> bool:
        """True for a 2 MiB (PMD-level) leaf."""
        return bool(self.flags & PteFlags.HUGE)

    @property
    def order(self) -> int:
        """Buddy order of the mapped frame block (0 or HUGE_ORDER)."""
        return HUGE_ORDER if self.huge else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pte(pfn={self.pfn:#x}, flags={self.flags!r})"


@dataclass
class WalkResult:
    """Outcome of a page walk."""

    pte: Pte | None
    #: Base VPN covered by the leaf (vpn itself for 4K, 512-aligned for 2M).
    base_vpn: int
    #: Number of table levels referenced (3 for a huge leaf, 4 for 4K,
    #: however deep the walk got for a miss).
    levels: int

    @property
    def hit(self) -> bool:
        """True when a present leaf was found."""
        return self.pte is not None and self.pte.present

    def translate(self, vpn: int) -> int:
        """PFN backing ``vpn``; only valid on a hit."""
        if not self.hit:
            raise MappingError(f"translating unmapped vpn {vpn:#x}")
        return self.pte.pfn + (vpn - self.base_vpn)


class _Node:
    """One 512-entry page table node."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        # index -> _Node (interior) or Pte (leaf)
        self.entries: dict[int, "_Node | Pte"] = {}


def _index(vpn: int, level: int) -> int:
    """Table index for ``vpn`` at ``level`` (level 4 = PGD ... 1 = PT)."""
    return (vpn >> (LEVEL_BITS * (level - 1))) & (LEVEL_FANOUT - 1)


def _next_index(entries: dict, lo: int, hi: int) -> int | None:
    """Smallest key of ``entries`` in ``[lo, hi)``, or None.

    Probes the index range or scans the keys, whichever is shorter.
    """
    if hi - lo <= len(entries):
        for idx in range(lo, hi):
            if idx in entries:
                return idx
        return None
    return min((idx for idx in entries if lo <= idx < hi), default=None)


class PageTable:
    """A per-address-space radix page table.

    Parameters
    ----------
    levels:
        Radix depth: 4 (x86-64 default) or 5 (LA57-style 57-bit VA).
    """

    def __init__(self, levels: int = LEVELS) -> None:
        if levels < 3:
            raise MappingError(f"page tables need >= 3 levels, got {levels}")
        self.levels = levels
        self._root = _Node()
        self._leaf_count = 0

    # -- mapping ------------------------------------------------------------

    def map(self, vpn: int, pfn: int, order: int = 0, flags: PteFlags = PteFlags.NONE) -> Pte:
        """Install a leaf mapping ``vpn -> pfn``.

        ``order`` must be 0 (4 KiB) or ``HUGE_ORDER`` (2 MiB leaf at the
        PMD level, requiring 512-page alignment of both vpn and pfn).
        Raises :class:`MappingError` on remap or granularity conflicts.
        """
        if order not in (0, HUGE_ORDER):
            raise MappingError(f"unsupported mapping order {order}")
        pte_flags = flags | PteFlags.PRESENT
        if order == HUGE_ORDER:
            if not is_aligned(vpn, HUGE_PAGES) or not is_aligned(pfn, HUGE_PAGES):
                raise MappingError(
                    f"huge mapping needs 2M alignment: vpn={vpn:#x} pfn={pfn:#x}"
                )
            pte_flags |= PteFlags.HUGE
            node = self._walk_to_level(vpn, 2, create=True)
            idx = _index(vpn, 2)
            existing = node.entries.get(idx)
            if isinstance(existing, _Node) and not existing.entries:
                # An empty PT node left behind by unmaps; reclaim it.
                existing = None
            if existing is not None:
                raise MappingError(
                    f"PMD slot for vpn {vpn:#x} already holds a "
                    f"{'table' if isinstance(existing, _Node) else 'mapping'}"
                )
            pte = Pte(pfn, pte_flags)
            node.entries[idx] = pte
        else:
            node = self._walk_to_level(vpn, 1, create=True)
            idx = _index(vpn, 1)
            if idx in node.entries:
                raise MappingError(f"vpn {vpn:#x} already mapped")
            pte = Pte(pfn, pte_flags)
            node.entries[idx] = pte
        self._leaf_count += 1
        return pte

    def map_span(self, vpn: int, pfns: list[int], flags: PteFlags,
                 contig: list[bool]) -> Pte:
        """Install the 4 KiB leaves ``vpn + i -> pfns[i]`` (``pfns`` non-empty).

        The bulk analogue of ``len(pfns)`` order-0 :meth:`map` calls:
        one radix descent per 512-entry PT node instead of one per page,
        and no per-page collision checks — callers guarantee the span is
        unmapped (the fault path derives spans from the mapping runs,
        which mirror the table exactly).  The frames need not be
        consecutive.  Page ``i`` gets :attr:`PteFlags.CONTIG` at creation
        when ``contig[i]`` holds (the batched contiguity-bit rule).
        Returns the last installed Pte.
        """
        base_flags = flags | PteFlags.PRESENT
        choice = (base_flags, base_flags | PteFlags.CONTIG)
        leaf_flags = list(map(choice.__getitem__, contig))
        n_pages = len(pfns)
        done = 0
        while done < n_pages:
            v = vpn + done
            entries = self._walk_to_level(v, 1, create=True).entries
            idx = v & (LEVEL_FANOUT - 1)
            stop = done + min(n_pages - done, LEVEL_FANOUT - idx)
            entries.update(zip(
                range(idx, idx + stop - done),
                map(Pte, pfns[done:stop], leaf_flags[done:stop]),
            ))
            done = stop
        self._leaf_count += n_pages
        return entries[(vpn + n_pages - 1) & (LEVEL_FANOUT - 1)]

    def unmap(self, vpn: int) -> Pte:
        """Remove the leaf covering ``vpn`` and return it.

        A huge leaf is removed whole; ``vpn`` may be any page inside it.
        """
        path = self._walk_path(vpn)
        if path is None:
            raise MappingError(f"unmapping absent vpn {vpn:#x}")
        node, idx, pte, _level = path
        del node.entries[idx]
        self._leaf_count -= 1
        return pte

    def unmap_region_leaves(self, region_vpn: int) -> int:
        """Detach every 4 KiB leaf of one 2 MiB-aligned region at once.

        The region maps to exactly one PT node, so the whole batch is a
        single descent plus one dict clear — the promotion hot path —
        instead of one full walk per page.  Returns the number of leaves
        removed; raises :class:`MappingError` when the PMD slot holds a
        huge leaf (callers promote only non-huge regions).
        """
        if not is_aligned(region_vpn, HUGE_PAGES):
            raise MappingError(f"region vpn {region_vpn:#x} not 2M-aligned")
        node = self._root
        for level in range(self.levels, 2, -1):
            entry = node.entries.get(_index(region_vpn, level))
            if entry is None:
                return 0
            node = entry
        pt = node.entries.get(_index(region_vpn, 2))
        if pt is None:
            return 0
        if isinstance(pt, Pte):
            raise MappingError(
                f"region {region_vpn:#x} is mapped by a huge leaf"
            )
        removed = len(pt.entries)
        pt.entries.clear()
        self._leaf_count -= removed
        return removed

    # -- lookup ------------------------------------------------------------

    def walk(self, vpn: int) -> WalkResult:
        """Walk the table for ``vpn``, counting levels referenced."""
        node = self._root
        for level in range(self.levels, 0, -1):
            entry = node.entries.get(_index(vpn, level))
            levels_touched = self.levels - level + 1
            if entry is None:
                return WalkResult(None, vpn, levels_touched)
            if isinstance(entry, Pte):
                base = vpn & ~(HUGE_PAGES - 1) if entry.huge else vpn
                return WalkResult(entry, base, levels_touched)
            node = entry
        raise MappingError(f"malformed page table at vpn {vpn:#x}")  # pragma: no cover

    def next_leaf(self, vpn: int, end: int) -> WalkResult | None:
        """The first present leaf covering a vpn in ``[vpn, end)``, or None.

        Equal to the first hit of ``walk(v)`` for ``v`` in
        ``range(vpn, end)`` (``base_vpn`` may lie below ``vpn`` when a
        huge leaf covers it), but each miss jumps to the next present
        index of the node it missed in — or past the node when none is
        left — instead of stepping one vpn.  Empty PT nodes left by
        :meth:`unmap` and non-present PTEs are stepped over.  Each call
        descends from the root afresh, so callers that remap leaves
        between calls see the table as it is.
        """
        levels = self.levels
        while vpn < end:
            node = self._root
            for level in range(levels, 0, -1):
                shift = LEVEL_BITS * (level - 1)
                idx = (vpn >> shift) & (LEVEL_FANOUT - 1)
                entries = node.entries
                entry = entries.get(idx)
                if entry is not None:
                    if type(entry) is _Node:
                        node = entry
                        continue
                    if entry.flags & PteFlags.PRESENT:
                        return WalkResult(
                            entry, vpn >> shift << shift, levels - level + 1
                        )
                # A miss at this level: resume at the node's next present
                # index below ``end``, or past the node's span.
                node_shift = shift + LEVEL_BITS
                node_base = vpn >> node_shift << node_shift
                last = min(LEVEL_FANOUT, ((end - 1 - node_base) >> shift) + 1)
                nxt = _next_index(entries, idx + 1, last)
                if nxt is None:
                    vpn = node_base + (1 << node_shift)
                else:
                    vpn = node_base | (nxt << shift)
                break
        return None

    def lookup(self, vpn: int) -> Pte | None:
        """The leaf covering ``vpn``, or None."""
        result = self.walk(vpn)
        return result.pte

    def translate(self, vpn: int) -> int | None:
        """PFN backing ``vpn``, or None when unmapped."""
        result = self.walk(vpn)
        return result.translate(vpn) if result.hit else None

    def is_mapped(self, vpn: int) -> bool:
        """True when a present leaf covers ``vpn``."""
        return self.walk(vpn).hit

    # -- iteration / stats ----------------------------------------------------

    @property
    def leaf_count(self) -> int:
        """Number of installed leaves (huge leaves count once)."""
        return self._leaf_count

    def iter_leaves(self) -> Iterator[tuple[int, Pte]]:
        """Yield ``(base_vpn, pte)`` for every leaf in VPN order."""
        yield from self._iter_node(self._root, self.levels, 0)

    def _iter_node(self, node: _Node, level: int, base: int) -> Iterator[tuple[int, Pte]]:
        shift = LEVEL_BITS * (level - 1)
        for idx in sorted(node.entries):
            entry = node.entries[idx]
            vpn = base | (idx << shift)
            if isinstance(entry, Pte):
                yield vpn, entry
            else:
                yield from self._iter_node(entry, level - 1, vpn)

    def mapped_pages(self) -> int:
        """Total base pages mapped."""
        return sum(
            HUGE_PAGES if pte.huge else 1 for _, pte in self.iter_leaves()
        )

    def node_count(self) -> int:
        """Number of table nodes (memory overhead diagnostics)."""
        def count(node: _Node) -> int:
            return 1 + sum(
                count(e) for e in node.entries.values() if isinstance(e, _Node)
            )

        return count(self._root)

    def huge_slot_free(self, vpn: int) -> bool:
        """True when the PMD slot covering ``vpn`` could take a huge leaf.

        The slot is free when no leaf occupies it and no PT node with
        live 4 KiB entries hangs below it.
        """
        node = self._root
        for level in range(self.levels, 2, -1):
            entry = node.entries.get(_index(vpn, level))
            if entry is None:
                return True
            if isinstance(entry, Pte):  # pragma: no cover - 1G leaves unmodelled
                return False
            node = entry
        entry = node.entries.get(_index(vpn, 2))
        if entry is None:
            return True
        if isinstance(entry, Pte):
            return False
        return len(entry.entries) == 0

    # -- internals -----------------------------------------------------------

    def _walk_to_level(self, vpn: int, stop_level: int, create: bool) -> _Node:
        """Descend to the node at ``stop_level``, optionally creating path."""
        node = self._root
        for level in range(self.levels, stop_level, -1):
            idx = _index(vpn, level)
            entry = node.entries.get(idx)
            if entry is None:
                if not create:
                    raise MappingError(f"no table node at level {level - 1}")
                entry = _Node()
                node.entries[idx] = entry
            elif isinstance(entry, Pte):
                raise MappingError(
                    f"vpn {vpn:#x} covered by a huge leaf at level {level}"
                )
            node = entry
        return node

    def _walk_path(self, vpn: int) -> tuple[_Node, int, Pte, int] | None:
        """Locate the leaf covering ``vpn`` with its parent node and index."""
        node = self._root
        for level in range(self.levels, 0, -1):
            idx = _index(vpn, level)
            entry = node.entries.get(idx)
            if entry is None:
                return None
            if isinstance(entry, Pte):
                return node, idx, entry, level
            node = entry
        return None
