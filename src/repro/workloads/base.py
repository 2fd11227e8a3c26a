"""Workload interface: VMA plans, fault orders, and access traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.sim.config import ScaleProfile
from repro.units import HUGE_PAGES, align_up


@dataclass(frozen=True)
class VmaPlan:
    """One anonymous area the workload mmaps.

    ``touched_fraction < 1`` models allocator arenas that are reserved
    but never fully used — demand paging backs only the touched part
    while eager paging backs it all (the source of Table VI's bloat).
    """

    name: str
    n_pages: int
    touched_fraction: float = 1.0

    @property
    def touched_pages(self) -> int:
        touched = int(self.n_pages * self.touched_fraction)
        return max(1, min(self.n_pages, touched))


@dataclass(frozen=True)
class FilePlan:
    """One input file read through the page cache."""

    name: str
    n_pages: int


@dataclass(frozen=True)
class AllocStep:
    """One step of the allocation phase.

    ``kind`` is ``"anon"`` (touch a VMA range, causing demand faults)
    or ``"file"`` (read a file range through the page cache).  Steps
    interleave anonymous faults with readahead like real loaders do
    (paper §III-C).
    """

    kind: str
    index: int  # VMA index or file index
    start_page: int
    n_pages: int


@dataclass(frozen=True)
class TraceSite:
    """One logical memory instruction in the steady-state loop.

    ``pattern`` selects how the site walks its VMA's touched range:
    ``"seq"`` (streaming), ``"uniform"`` (random probes), ``"zipf"``
    (power-law skew, graph-vertex style) or ``"strip"`` (random start,
    short sequential read — XSBench-style grid lookups).
    """

    pc: int
    vma: int
    pattern: str
    weight: float
    stride: int = 1
    zipf_a: float = 1.4
    strip_len: int = 8


@dataclass
class AccessTrace:
    """A generated memory access stream (structure-of-arrays)."""

    pc: np.ndarray  # int32 instruction identifiers
    vma: np.ndarray  # int16 VMA indices
    page: np.ndarray  # int64 page offsets inside the VMA's touched range

    def __len__(self) -> int:
        return len(self.pc)


class Workload:
    """Base class for the synthetic paper workloads.

    Subclasses define ``name``, ``paper_gb``, ``threads`` and the three
    plan methods.  Everything here is deterministic given ``seed``.
    """

    name = "base"
    paper_gb = 1.0
    threads = 1
    #: Nominal instructions per memory access (feeds T_ideal; ~4 is a
    #: typical instruction mix with ~25% loads/stores).
    instructions_per_access = 4.0
    #: Branch fraction of the instruction stream (Table VII input).
    branch_fraction = 0.0587

    def __init__(self, scale: ScaleProfile, seed: int = 0):
        self.scale = scale
        self.seed = seed
        self._vmas = self._build_vma_plans()
        self._files = self._build_file_plans()

    # -- subclass hooks ------------------------------------------------------

    def _build_vma_plans(self) -> list[VmaPlan]:
        raise NotImplementedError

    def _build_file_plans(self) -> list[FilePlan]:
        return []

    def trace_sites(self) -> Sequence[TraceSite]:
        raise NotImplementedError

    # -- derived plans -----------------------------------------------------------

    @property
    def vma_plans(self) -> list[VmaPlan]:
        return self._vmas

    @property
    def file_plans(self) -> list[FilePlan]:
        return self._files

    @property
    def footprint_pages(self) -> int:
        """Touched anonymous pages (the paper's footprint notion)."""
        return sum(v.touched_pages for v in self._vmas)

    def scaled(self, paper_gb: float, huge_aligned: bool = True) -> int:
        """Scale a paper size (GB) to simulated pages."""
        n = self.scale.paper_gb_pages(paper_gb)
        return align_up(n, HUGE_PAGES) if huge_aligned else n

    def alloc_steps(self) -> Iterator[AllocStep]:
        """Default allocation phase.

        Touches every VMA front to back in chunks, interleaving the
        file reads; multithreaded workloads partition each VMA across
        threads and interleave the partitions (concurrent first-touch
        faulting, §III-C).
        """
        chunk = HUGE_PAGES * 2
        streams: list[list[AllocStep]] = []
        for vma_idx, plan in enumerate(self._vmas):
            for part_start, part_pages in self._partitions(plan.touched_pages):
                steps = [
                    AllocStep("anon", vma_idx, p, min(chunk, part_start + part_pages - p))
                    for p in range(part_start, part_start + part_pages, chunk)
                ]
                streams.append(steps)
        for file_idx, plan in enumerate(self._files):
            steps = [
                AllocStep("file", file_idx, p, min(chunk, plan.n_pages - p))
                for p in range(0, plan.n_pages, chunk)
            ]
            streams.append(steps)
        yield from _round_robin(streams)

    def _partitions(self, n_pages: int) -> list[tuple[int, int]]:
        if self.threads <= 1:
            return [(0, n_pages)]
        per = -(-n_pages // self.threads)
        return [
            (start, min(per, n_pages - start))
            for start in range(0, n_pages, per)
        ]

    # -- trace generation ------------------------------------------------------------

    def trace(self, n_accesses: int, seed: int | None = None) -> AccessTrace:
        """Generate the steady-state access stream."""
        rng = np.random.default_rng(self.seed if seed is None else seed)
        sites = list(self.trace_sites())
        weights = np.array([s.weight for s in sites], dtype=float)
        weights /= weights.sum()
        choice = rng.choice(len(sites), size=n_accesses, p=weights)
        pc = np.array([s.pc for s in sites], dtype=np.int32)[choice]
        vma = np.array([s.vma for s in sites], dtype=np.int16)[choice]
        # Group the accesses by site with one stable sort (a narrow key
        # radix-sorts): each site's slice of ``order`` lists its
        # accesses in stream order.
        key = choice.astype(np.uint8) if len(sites) <= 256 else choice
        order = np.argsort(key, kind="stable")
        counts = np.bincount(choice, minlength=len(sites)).tolist()
        page = np.empty(n_accesses, dtype=np.int64)
        end = 0
        for site, k in zip(sites, counts):
            if k == 0:
                continue
            page[order[end:end + k]] = self._pattern_pages(site, k, rng)
            end += k
        return AccessTrace(pc=pc, vma=vma, page=page)

    def _pattern_pages(self, site: TraceSite, k: int, rng) -> np.ndarray:
        span = self._vmas[site.vma].touched_pages
        if site.pattern == "seq":
            start = int(rng.integers(0, span))
            return (start + np.arange(k, dtype=np.int64) * site.stride) % span
        if site.pattern == "uniform":
            return rng.integers(0, span, size=k, dtype=np.int64)
        if site.pattern == "zipf":
            ranks = rng.zipf(site.zipf_a, size=k).astype(np.int64)
            return (ranks - 1) % span
        if site.pattern == "strip":
            n_strips = -(-k // site.strip_len)
            starts = rng.integers(0, span, size=n_strips, dtype=np.int64)
            pages = (
                starts[:, None] + np.arange(site.strip_len, dtype=np.int64)
            ).reshape(-1)[:k]
            return pages % span
        raise ValueError(f"unknown trace pattern {site.pattern!r}")

    # -- nominal instruction stream (perf model / Table VII inputs) ---------------

    def instruction_count(self, n_accesses: int) -> int:
        """Nominal instructions executed while issuing ``n_accesses``."""
        return int(n_accesses * self.instructions_per_access)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.footprint_pages} pages)"


def _round_robin(streams: list[list[AllocStep]]) -> Iterator[AllocStep]:
    """Interleave step streams (concurrent threads / loader + reader)."""
    cursors = [0] * len(streams)
    remaining = sum(len(s) for s in streams)
    while remaining:
        for i, stream in enumerate(streams):
            if cursors[i] < len(stream):
                yield stream[cursors[i]]
                cursors[i] += 1
                remaining -= 1
