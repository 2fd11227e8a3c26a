"""Configuration: scale profiles, machine shapes, hardware parameters.

The paper runs on a 256 GiB two-socket machine with 29–167 GiB
workloads; a pure-Python emulation must scale that down.  A
:class:`ScaleProfile` maps "paper gigabytes" to simulated pages so that
the footprint / memory and footprint / TLB-reach ratios stay in the
paper's regime.  Every experiment records the profile it used, and all
tests use the small profile so the suite stays fast.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.units import DEFAULT_MAX_ORDER, GIB, MIB, align_up, order_pages, pages

#: MAX_ORDER the eager-paging baseline raises the kernel to (blocks of
#: 2**15 pages = 128 MiB at 4 KiB pages), mirroring RMM's patch.
EAGER_MAX_ORDER = 15


@dataclass(frozen=True)
class ScaleProfile:
    """Mapping from paper sizes to simulated sizes.

    Parameters
    ----------
    bytes_per_paper_gb:
        Simulated bytes standing in for one paper gigabyte.
    machine_paper_gb:
        The paper machine's memory in (paper) gigabytes per NUMA node.
    """

    name: str = "default"
    bytes_per_paper_gb: int = 8 * MIB
    machine_paper_gb: tuple[int, int] = (128, 128)

    def paper_gb_pages(self, paper_gb: float) -> int:
        """Simulated pages standing in for ``paper_gb`` paper gigabytes."""
        n = pages(int(paper_gb * self.bytes_per_paper_gb))
        return max(1, n)

    def node_pages(self, max_order: int = DEFAULT_MAX_ORDER) -> list[int]:
        """Per-node simulated frames (aligned to the max buddy block)."""
        top = order_pages(max_order)
        return [
            align_up(self.paper_gb_pages(gb), top) for gb in self.machine_paper_gb
        ]


#: Tiny profile for unit tests (fast machine construction).
TEST_SCALE = ScaleProfile(name="test", bytes_per_paper_gb=MIB, machine_paper_gb=(16, 16))
#: Fast profile for smoke benches and contiguity sweeps.
QUICK_SCALE = ScaleProfile(name="quick", bytes_per_paper_gb=4 * MIB)
#: Default experiment profile: 1 paper GiB = 16 MiB simulated; the
#: 256 GiB machine becomes 4 GiB (1 Mi frames).  The hardware figures
#: (13/14) are calibrated at this scale.
DEFAULT_SCALE = ScaleProfile(name="default", bytes_per_paper_gb=16 * MIB)
#: Larger profile for slower, higher-resolution runs.
BIG_SCALE = ScaleProfile(name="big", bytes_per_paper_gb=32 * MIB)
#: Full paper scale: 1 paper GiB = 1 simulated GiB, so the 256 GiB
#: machine and the 29–167 GB footprints are exercised at face value.
#: The kernel's batched span fault path is what lets fault phases
#: finish at this tier in reasonable time (see docs/scaling.md).
PAPER_SCALE = ScaleProfile(name="paper", bytes_per_paper_gb=GIB)


@dataclass(frozen=True)
class SystemConfig:
    """Shape of a simulated machine (native or one virtualization level)."""

    node_pages: tuple[int, ...] = (64 * 1024, 64 * 1024)
    max_order: int = DEFAULT_MAX_ORDER
    sorted_max_order: bool = False
    thp: bool = True
    #: Allocate-and-free churn operations applied at boot to model an
    #: aged machine (randomizes free-list order, preserves contiguity).
    churn_ops: int = 2000
    #: Fraction of memory pinned permanently at boot in scattered blocks
    #: (kernel text, page tables, long-lived daemons).  Breaks each node
    #: into several free clusters, which is what next-fit placement
    #: needs to keep independent VMAs from racing the same cluster.
    reserve_fraction: float = 0.01
    #: Kernel calls ``policy.tick`` every this many faults (async daemons).
    tick_every_faults: int = 256
    #: Contiguous-mapping threshold (pages) for the SpOT PTE bit (§IV-C).
    contig_threshold: int = 32
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.node_pages:
            raise ConfigError("node_pages must name at least one node")
        if self.max_order < 1:
            raise ConfigError(f"max_order must be >= 1, got {self.max_order}")

    # Checkpoint digests cover the pickled layout, which still carries the
    # retired kernel-engine field (ROADMAP: "Checkpoints that hold only
    # semantic state").  Keys are interned as pickle's default restore does,
    # so a resumed config re-pickles byte-identically.
    def __getstate__(self) -> dict:
        return {**self.__dict__, "engine": "fast"}

    def __setstate__(self, state: dict) -> None:
        state.pop("engine", None)
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())

    @classmethod
    def from_scale(cls, scale: ScaleProfile, **overrides) -> "SystemConfig":
        """Build a machine shape from a scale profile.

        ``node_pages`` may be overridden (e.g. a single node for the
        NUMA-off fragmentation experiments).
        """
        max_order = overrides.pop("max_order", DEFAULT_MAX_ORDER)
        node_pages = overrides.pop("node_pages", tuple(scale.node_pages(max_order)))
        return cls(node_pages=tuple(node_pages), max_order=max_order, **overrides)

    def for_policy(self, policy_name: str) -> "SystemConfig":
        """Adjust machine knobs the way each baseline's patch does.

        - eager paging raises MAX_ORDER so pre-allocation can grab huge
          aligned blocks (node sizes are re-aligned to the new block),
        - CA paging sorts the MAX_ORDER free list (§III-C),
        - ingens disables synchronous THP faults (promotion is async).
        """
        cfg = self
        if policy_name == "eager":
            top = order_pages(EAGER_MAX_ORDER)
            cfg = replace(
                cfg,
                max_order=EAGER_MAX_ORDER,
                node_pages=tuple(align_up(n, top) for n in cfg.node_pages),
            )
        elif policy_name in ("ca", "ideal"):
            cfg = replace(cfg, sorted_max_order=True)
        elif policy_name == "ingens":
            cfg = replace(cfg, thp=False)
        return cfg


@dataclass(frozen=True)
class HardwareConfig:
    """TLB hierarchy and walk-latency parameters (Table II + §V).

    The TLB is scaled down with the machine so that TLB reach relative
    to footprints stays in the paper's regime; the real Broadwell
    geometry from Table II is available as ``HardwareConfig.broadwell()``.
    """

    l1_4k_entries: int = 16
    l1_4k_ways: int = 4
    l1_2m_entries: int = 8
    l1_2m_ways: int = 4
    l2_entries: int = 96
    l2_ways: int = 6
    #: SpOT prediction table geometry (Table II: 32 entries, 4-way).
    spot_entries: int = 32
    spot_ways: int = 4
    #: SpOT 2-bit confidence mechanism (ablation switch, §IV-C).
    spot_confidence: bool = True
    #: vRMM range TLB (Table II: 32 entries, fully associative).
    range_tlb_entries: int = 32
    #: Coalesced TLB (Ban & Cheng): geometry + aligned span window one
    #: coalesced entry can cover (power of two, pages).
    ctlb_entries: int = 64
    ctlb_ways: int = 4
    ctlb_span_pages: int = 16
    #: Utopia: RestSeg capacity (pages) and flexible misses a run must
    #: absorb before promotion into the restrictive region.
    utopia_restseg_pages: int = 1 << 18
    utopia_promote_after: int = 4
    #: Segmentation baseline: base/limit segments per VM.
    seg_max_segments: int = 16

    @classmethod
    def broadwell(cls) -> "HardwareConfig":
        """The paper's real test machine geometry (Table II)."""
        return cls(
            l1_4k_entries=64,
            l1_4k_ways=4,
            l1_2m_entries=32,
            l1_2m_ways=4,
            l2_entries=1536,
            l2_ways=6,
        )
