"""vHC as a working TLB scheme: anchored coalescing on the access path.

The paper evaluates virtualized Hybrid Coalescing only structurally
(Table I's anchor-entry counts) and argues in §IV-A that its *virtual
alignment* restriction wastes CA paging's unaligned contiguity.  This
module implements the mechanism so that argument can be measured:

- the OS picks a per-process **anchor distance** ``d`` (a power of two,
  from average contiguity — :func:`repro.hw.hybrid_coalescing.anchor_distance_for`);
- every ``d``-aligned virtual address can hold an *anchor entry*
  recording how far contiguity extends from the anchor (capped at
  ``d`` — the next anchor takes over);
- the TLB caches anchor entries: one entry covers up to ``d`` pages,
  but only from an aligned start, so an unaligned run of length ``n``
  needs ``~n/d + 1`` entries and its head/tail fragments coalesce
  poorly.

``simulate_vhc`` replays a resolved trace against an anchor TLB and
returns miss counts comparable to the baseline simulator's, enabling
the extension experiment ``ext_vhc``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hw.translation import ResolvedTrace
from repro.hw.tlb import SetAssocTlb


@dataclass
class VhcStats:
    """Anchor-TLB counters."""

    accesses: int = 0
    hits: int = 0
    walks: int = 0
    #: Pages covered by the entries installed (coalescing efficiency).
    pages_per_entry_sum: int = 0
    entries_installed: int = 0

    @property
    def miss_rate(self) -> float:
        return self.walks / max(1, self.accesses)

    @property
    def avg_pages_per_entry(self) -> float:
        return self.pages_per_entry_sum / max(1, self.entries_installed)


class VhcTlb:
    """A TLB of anchored coalesced entries."""

    def __init__(self, entries: int = 96, ways: int = 6, distance: int = 64):
        if distance <= 0 or distance & (distance - 1):
            raise ConfigError(f"anchor distance must be a power of two, got {distance}")
        self.distance = distance
        self._tlb = SetAssocTlb(entries, ways)
        # anchor base -> pages covered from the anchor.
        self._coverage: dict[int, int] = {}
        self.stats = VhcStats()

    #: Pages covered by one *regular* (non-anchor) hybrid-TLB entry:
    #: a 2 MiB entry when the mapping allows, modelled optimistically.
    REGULAR_SPAN = 512

    def access(self, vpn: int, run_start: int, run_len: int) -> bool:
        """One translation request; returns True on a hit.

        ``run_start``/``run_len`` describe the contiguous mapping run
        backing ``vpn`` (what the modified page walker would find and
        coalesce into the anchor entry on a miss).  Hybrid TLBs hold
        both anchor entries and regular entries; the *head fragment* of
        an unaligned run (pages before its first usable anchor) can
        only be cached by regular entries — the alignment penalty.
        """
        self.stats.accesses += 1
        anchor = vpn & ~(self.distance - 1)
        if self._tlb.lookup(anchor) and vpn < anchor + self._coverage.get(anchor, 0):
            self.stats.hits += 1
            return True
        # Regular entries key as (0, base) so they never collide with
        # int anchor keys.  Ints only: SetAssocTlb indexes sets by
        # hash(key), and a str in the key would tie the set index to
        # the per-process PYTHONHASHSEED.
        region = (0, vpn & ~(self.REGULAR_SPAN - 1))
        if self._tlb.lookup(region):
            self.stats.hits += 1
            return True
        # Miss: the (augmented, costlier) walk resolves and coalesces.
        self.stats.walks += 1
        run_end = run_start + run_len
        if run_start <= anchor < run_end:
            # Usable anchor: contiguity extends from the anchor itself.
            coverage = max(1, min(run_end, anchor + self.distance) - anchor)
            self._tlb.insert(anchor)
            self._coverage[anchor] = coverage
            self.stats.entries_installed += 1
            self.stats.pages_per_entry_sum += coverage
        else:
            # Head fragment / tiny run: fall back to a regular entry.
            self._tlb.insert(region)
            self.stats.entries_installed += 1
            self.stats.pages_per_entry_sum += min(self.REGULAR_SPAN, max(1, run_len))
        return False


def simulate_vhc(resolved: ResolvedTrace, distance: int,
                 entries: int = 96, ways: int = 6) -> VhcStats:
    """Replay a resolved trace against an anchor TLB."""
    tlb = VhcTlb(entries=entries, ways=ways, distance=distance)
    vpns = resolved.vpn.tolist()
    starts = resolved.run_start.tolist()
    lens = resolved.run_len.tolist()
    for i in range(len(vpns)):
        tlb.access(vpns[i], starts[i], lens[i])
    return tlb.stats
