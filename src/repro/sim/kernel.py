"""The OS kernel model: fault path, THP, fork/COW, page cache, policies.

This is the Linux-analogue the paper patches.  It owns the fault
handling sequence:

1. VMA lookup, minor-fault short circuit, COW break detection;
2. THP eligibility (2 MiB fault when the aligned region fits the VMA
   and nothing in it is mapped yet);
3. delegation to the active placement policy for the frame;
4. page-table installation, mapping-run tracking, and maintenance of
   the SpOT *contiguity bit* (PTEs of runs >= ``contig_threshold``);
5. fault-latency accounting (zeroing dominates — this drives Table V)
   and periodic policy ticks (the Ingens/Ranger daemons).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import AddressSpaceError, MappingError, OutOfMemoryError
from repro.mm.physmem import PhysicalMemory
from repro.policies.base import FaultContext, PlacementPolicy
from repro.units import HUGE_ORDER, HUGE_PAGES, order_pages
from repro.vm.flags import DEFAULT_ANON, PteFlags, VmaFlags
from repro.vm.mapping_runs import frame_stretches
from repro.vm.page_cache import CachedFile, PageCache
from repro.vm.process import Process
from repro.vm.vma import Vma

#: Fault-latency model constants (microseconds).  Calibrated so a THP
#: fault (zeroing 512 pages) costs ~515 us like Table V.
FAULT_BASE_US = 2.5
ZERO_US_PER_PAGE = 1.0
PLACEMENT_SEARCH_US = 8.0


@dataclass
class FaultEvent:
    """One major fault (or eager pre-allocation event) for Table V."""

    pid: int
    order: int
    latency_us: float
    placed: bool


class FaultLog:
    """Run-length-encoded major-fault log.

    The batched fault paths retire thousands of identical ``(pid,
    order, latency, placed)`` events per call; storing one block per
    maximal run keeps paper-scale logs (tens of millions of faults) in
    O(distinct transitions) memory while reproducing the exact
    per-event view on demand.
    """

    __slots__ = ("_pids", "_orders", "_lats", "_placed", "_counts", "_total")

    def __init__(self) -> None:
        self._pids: list[int] = []
        self._orders: list[int] = []
        self._lats: list[float] = []
        self._placed: list[bool] = []
        self._counts: list[int] = []
        self._total = 0

    def append(self, pid: int, order: int, latency_us: float, placed: bool) -> None:
        """Record one fault event."""
        self.append_run(pid, order, latency_us, placed, 1)

    def append_run(self, pid: int, order: int, latency_us: float,
                   placed: bool, count: int) -> None:
        """Record ``count`` identical consecutive fault events."""
        if count <= 0:
            return
        if (
            self._counts
            and self._pids[-1] == pid
            and self._orders[-1] == order
            and self._lats[-1] == latency_us
            and self._placed[-1] == placed
        ):
            self._counts[-1] += count
        else:
            self._pids.append(pid)
            self._orders.append(order)
            self._lats.append(latency_us)
            self._placed.append(placed)
            self._counts.append(count)
        self._total += count

    def __len__(self) -> int:
        return self._total

    def events(self) -> "list[FaultEvent]":
        """Materialized per-event view (small logs, tests, percentiles)."""
        out: list[FaultEvent] = []
        for pid, order, lat, placed, count in zip(
            self._pids, self._orders, self._lats, self._placed, self._counts
        ):
            out.extend(FaultEvent(pid, order, lat, placed) for _ in range(count))
        return out

    def latencies_us(self) -> list[float]:
        """Latency of every fault, in event order (materialized)."""
        out: list[float] = []
        for lat, count in zip(self._lats, self._counts):
            out.extend([lat] * count)
        return out

    def latency_sum_us(self) -> float:
        """Exact total latency without materializing the events.

        Block sums match the sequential per-event sum bit-for-bit:
        every modelled latency is a small multiple of 0.5 us, so both
        summation orders stay exact in float64 far beyond any
        reachable fault count.
        """
        return sum(c * lat for c, lat in zip(self._counts, self._lats))

    def clear(self) -> None:
        """Drop all recorded events."""
        self._pids.clear()
        self._orders.clear()
        self._lats.clear()
        self._placed.clear()
        self._counts.clear()
        self._total = 0


@dataclass
class FaultResult:
    """Outcome of a fault: what got mapped."""

    vpn: int
    pfn: int
    order: int
    minor: bool = False
    cow_break: bool = False


class Kernel:
    """One OS instance (the host kernel, a guest kernel, or native)."""

    def __init__(
        self,
        mem: PhysicalMemory,
        policy: PlacementPolicy,
        thp: bool = True,
        contig_threshold: int = 32,
        tick_every_faults: int = 256,
    ):
        self.mem = mem
        self.policy = policy
        policy.bind(mem)
        policy.oom_reclaim = self.reclaim_pages
        self.thp = thp
        #: True when the bound policy overrides ``on_fault_batch`` (the
        #: span fault path then claims whole order-0 batches).
        self._policy_batches = (
            type(policy).on_fault_batch is not PlacementPolicy.on_fault_batch
        )
        self.contig_threshold = contig_threshold
        self.tick_every_faults = tick_every_faults
        self.page_cache = PageCache()
        self._processes: dict[int, Process] = {}
        self._next_pid = 1
        self._next_scratch_id = 1
        self.fault_log = FaultLog()
        self.minor_faults = 0
        self.cow_breaks = 0
        self.tlb_shootdowns = 0
        self._faults_since_tick = 0
        # True once any fork happened: only then can COW leaves exist,
        # so touch_range must inspect already-mapped stretches.
        self._cow_possible = False

    # Checkpoint digests cover the pickled layout, which still carries the
    # retired engine switch (ROADMAP: "Checkpoints that hold only semantic
    # state").  Keys are interned as pickle's default restore does, so a
    # resumed kernel re-pickles byte-identically.
    def __getstate__(self) -> dict:
        state = {}
        for key, value in self.__dict__.items():
            state[key] = value
            if key == "thp":
                state["engine"] = "fast"
        return state

    def __setstate__(self, state: dict) -> None:
        state.pop("engine", None)
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())

    # -- process lifecycle ---------------------------------------------------

    def create_process(self, name: str = "", preferred_node: int = 0) -> Process:
        """Spawn a process with an empty address space."""
        process = Process(self._next_pid, name, preferred_node)
        self._next_pid += 1
        self._processes[process.pid] = process
        return process

    def iter_processes(self) -> Iterator[Process]:
        """Live processes."""
        return iter(list(self._processes.values()))

    def next_scratch_id(self) -> int:
        """Sequence number for scratch-file names left by run teardown.

        Per-kernel (not process-global) so a run's scratch names — and
        with them the whole result — depend only on this machine's own
        history, never on how many unrelated runs preceded it in the
        same Python process (worker reuse, test ordering).
        """
        scratch_id = self._next_scratch_id
        self._next_scratch_id += 1
        return scratch_id

    def node_of(self, process: Process) -> int:
        """Preferred NUMA node of a process."""
        return process.preferred_node

    def exit_process(self, process: Process) -> None:
        """Tear down a process, freeing all its frames."""
        for vma in list(process.space.iter_vmas()):
            self.munmap(process, vma)
        process.alive = False
        del self._processes[process.pid]

    # -- VMA management -------------------------------------------------------

    def mmap(
        self,
        process: Process,
        n_pages: int,
        flags: VmaFlags = DEFAULT_ANON,
        name: str = "",
        at_vpn: int | None = None,
        file: CachedFile | None = None,
    ) -> Vma:
        """Create a VMA; eager policies back it immediately."""
        vma = process.space.mmap(n_pages, flags, at_vpn=at_vpn, name=name, file=file)
        blocks = self.policy.on_mmap(process.space, vma)
        for vpn, pfn, order in blocks:
            self._install_block(process, vma, vpn, pfn, order)
            self.fault_log.append(
                process.pid,
                order,
                FAULT_BASE_US + ZERO_US_PER_PAGE * order_pages(order),
                placed=False,
            )
        return vma

    def munmap(self, process: Process, vma: Vma) -> None:
        """Destroy a VMA and release its frames."""
        self.policy.on_munmap(process.space, vma)
        # Free by physical stretch: consecutive leaves (VPN order) whose
        # frames continue each other go back in one span.
        stretches: list[tuple[int, int]] = []
        start = n_pages = 0
        for _vpn, pte in process.space.munmap(vma):
            pages = order_pages(pte.order)
            if n_pages and pte.pfn == start + n_pages:
                n_pages += pages
                continue
            if n_pages:
                stretches.append((start, n_pages))
            start, n_pages = pte.pfn, pages
        if n_pages:
            stretches.append((start, n_pages))
        self._put_frame_spans(stretches)

    # -- the fault path -----------------------------------------------------------

    def fault(self, process: Process, vpn: int, write: bool = True) -> FaultResult:
        """Handle a page fault at ``vpn``."""
        space = process.space
        vma = space.vma_at(vpn)
        if vma is None:
            raise AddressSpaceError(
                f"segfault: pid {process.pid} touched unmapped vpn {vpn:#x}"
            )
        walk = space.page_table.walk(vpn)
        if walk.hit:
            if write and walk.pte.flags & PteFlags.COW:
                return self._cow_break(process, vma, walk.base_vpn, walk.pte)
            self.minor_faults += 1
            return FaultResult(walk.base_vpn, walk.pte.pfn, walk.pte.order, minor=True)

        base_vpn, req_order = vpn, 0
        if self.thp:
            candidate = space.huge_candidate(vma, vpn)
            if candidate is not None:
                base_vpn, req_order = candidate, HUGE_ORDER
        result, _ = self._install_fault(process, vma, base_vpn, req_order, vpn, write)
        return result

    def _install_fault(self, process: Process, vma: Vma, base_vpn: int,
                       req_order: int, vpn: int, write: bool,
                       pte_flags: PteFlags | None = None,
                       ctx: FaultContext | None = None) -> tuple[FaultResult, bool]:
        """Allocate and install one fresh leaf (the tail of :meth:`fault`).

        Returns the fault result plus whether a policy tick fired (a
        tick's daemon work may remap pages, so batched callers must
        re-scan their work list when it does).  ``pte_flags``/``ctx``
        let :meth:`fault_span` hoist the invariant parts out of the
        per-leaf loop (policies never retain the context).
        """
        space = process.space
        placements_before = self.policy.stats.placements
        if ctx is None:
            ctx = FaultContext(
                space, vma, base_vpn, req_order, write=write,
                preferred_node=process.preferred_node,
            )
        else:
            ctx.vpn = base_vpn
            ctx.order = req_order
        pfn, got_order = self.policy.allocate(ctx)
        if got_order < req_order:
            # Downgraded huge fault: map only the faulting base page.
            base_vpn = vpn
        if pte_flags is None:
            pte_flags = self._prot_flags(vma, write)
        pte = space.install(vma, base_vpn, pfn, got_order, pte_flags)
        self._account_frame(pfn, got_order, owner=process.pid)
        self._update_contig_bit(space, base_vpn, pte)

        placed = self.policy.stats.placements > placements_before
        latency = FAULT_BASE_US + ZERO_US_PER_PAGE * order_pages(got_order)
        if placed:
            latency += PLACEMENT_SEARCH_US
        self.fault_log.append(process.pid, got_order, latency, placed)
        ticked = self._maybe_tick()
        return FaultResult(base_vpn, pfn, got_order), ticked

    def fault_span(self, process: Process, vma: Vma, vpn: int, end: int,
                   write: bool = True, on_fault=None,
                   on_span=None) -> tuple[int, int]:
        """Fault in the (unmapped) span ``[vpn, end)`` inside ``vma``.

        The batched analogue of calling :meth:`fault` per page, without
        re-walking the page table or re-resolving the VMA between
        leaves.  Order-0 stretches are claimed from the policy in one
        ``on_fault_batch`` call (bounded by the pending tick budget so
        daemon ticks fire after exactly the same fault as per-page
        faulting) and installed with one page-table descent per PT node
        and one run/frame update per physically contiguous segment.
        Huge-eligible faults and pages the policy declines to batch
        (placement decisions, OOM fallbacks) take the per-leaf reference
        path, so the observable state is bit-identical to per-page
        :meth:`fault` calls.

        ``on_span(vpn, pfn, n_pages)`` is invoked for every installed
        segment (the hypervisor nested-backs the granted frames there).
        ``on_fault(result)`` instead forces per-leaf granularity so each
        fault hook sees its :class:`FaultResult`.  Stops early when a
        policy tick fires, because daemon work may have remapped pages
        inside the caller's pending span.  Returns
        ``(major_faults, next_vpn)``.
        """
        space = process.space
        majors = 0
        thp = self.thp
        huge_candidate = space.huge_candidate
        batch = self._policy_batches and on_fault is None
        pte_flags = self._prot_flags(vma, write)
        batch_latency = FAULT_BASE_US + ZERO_US_PER_PAGE
        ctx = FaultContext(
            space, vma, vpn, 0, write=write,
            preferred_node=process.preferred_node,
        )
        while vpn < end:
            base_vpn, req_order, span_end = vpn, 0, end
            if thp:
                candidate = huge_candidate(vma, vpn)
                if candidate is not None:
                    base_vpn, req_order = candidate, HUGE_ORDER
                else:
                    # No huge leaf here: the rest of this 2 MiB region is
                    # order-0 (the slot stays ineligible once partial).
                    span_end = min(end, (vpn | (HUGE_PAGES - 1)) + 1)
            take = min(span_end - vpn, self.tick_every_faults - self._faults_since_tick)
            if batch and req_order == 0 and take > 1:
                ctx.vpn = vpn
                ctx.order = 0
                vpns = np.arange(vpn, vpn + take, dtype=np.int64)
                pfns = self.policy.on_fault_batch(ctx, vpns)
                got = len(pfns)
                if got:
                    self._install_span_batch(
                        process, vma, vpn, pfns, pte_flags, on_span
                    )
                    majors += got
                    self.fault_log.append_run(
                        process.pid, 0, batch_latency, False, got
                    )
                    vpn += got
                    self._faults_since_tick += got
                    if self._faults_since_tick >= self.tick_every_faults:
                        self._faults_since_tick = 0
                        self.policy.tick(self)
                        break  # daemon work may have remapped the pending span
                    if got == take:
                        continue
                    base_vpn = vpn
            # Per-leaf reference path: huge faults, pages the policy
            # ceded, and every leaf when batching is off.  It carries the
            # full placement / OOM / reclaim semantics.
            result, ticked = self._install_fault(
                process, vma, base_vpn, req_order, vpn, write,
                pte_flags=pte_flags, ctx=ctx,
            )
            majors += 1
            if on_fault is not None:
                on_fault(result)
            elif on_span is not None:
                on_span(result.vpn, result.pfn, order_pages(result.order))
            vpn = result.vpn + order_pages(result.order)
            if ticked:
                break
        return majors, vpn

    def _install_span_batch(self, process: Process, vma: Vma, vpn: int,
                            pfns, pte_flags: PteFlags, on_span=None) -> None:
        """Install one claimed batch of order-0 leaves.

        The batch's vpns are consecutive; its frames split into segments
        at physical discontinuities.  The whole batch is one page-table
        sweep and one frame-column update, with one run insertion per
        segment.  The contiguity bit follows the scalar per-page rule:
        page ``i`` of a segment is created CONTIG when the run it lands
        in has already reached the threshold at that point (``pred_len
        + i + 1 >= thr``), and the final page picks the bit up when its
        install merges past the threshold through an existing successor
        run.  Only the first segment can extend a run that precedes it
        (each later one starts at a physical break, so the run before it
        has another offset) and only the last can merge with a
        successor (the batch's vpns were all unmapped).
        """
        space = process.space
        thr = self.contig_threshold
        pfn_list = pfns.tolist()
        n = len(pfn_list)
        starts = [0, *(np.flatnonzero(np.diff(pfns) != 1) + 1).tolist(), n]
        pred = space.runs.find(vpn - 1)
        pred_len = (
            pred.n_pages
            if pred is not None
            and pred.end_vpn == vpn
            and pred.offset == vpn - pfn_list[0]
            else 0
        )
        contig_from = max(0, thr - pred_len - 1)
        contig: list[bool] = []
        for s, e in zip(starts, starts[1:]):
            plain = min(contig_from, e - s)
            contig += [False] * plain + [True] * (e - s - plain)
            contig_from = max(0, thr - 1)
        run, last = space.install_batch(vma, vpn, pfn_list, starts, pte_flags, contig)
        if not contig[-1] and run.n_pages >= thr:
            # Successor merge crossed the threshold on the last page.
            last.flags |= PteFlags.CONTIG
        self._account_frames(pfns, process.pid)
        if on_span is not None:
            for s, e in zip(starts, starts[1:]):
                on_span(vpn + s, pfn_list[s], e - s)

    def touch(self, process: Process, vpn: int, write: bool = True) -> FaultResult:
        """Access a page, faulting it in when absent (workload driver API)."""
        return self.fault(process, vpn, write)

    def touch_range(self, process: Process, start_vpn: int, n_pages: int,
                    write: bool = True) -> int:
        """Touch ``n_pages`` from ``start_vpn``; returns major fault count.

        Skips pages already mapped cheaply (no minor-fault accounting),
        which keeps sequential allocation phases fast.  Mapped stretches
        are skipped via the mapping runs (which mirror the page table
        exactly) and unmapped gaps are faulted through
        :meth:`fault_span`, so the cost is one run lookup per stretch
        plus one policy call per order-0 batch or huge leaf — not one
        page-table walk per page.  Behaviour is identical to one
        :meth:`fault` per unmapped page or COW leaf (the per-page
        reference in ``tests/reference.py``).
        """
        space = process.space
        majors = 0
        vpn = start_vpn
        end = start_vpn + n_pages
        # COW leaves are invisible to the runs; scan mapped stretches
        # leaf-by-leaf only when COW mappings can exist at all.
        scan_cow = write and self._cow_possible
        while vpn < end:
            gap = space.runs.next_unmapped(vpn, end)
            if gap is None:
                if scan_cow:
                    majors += self._cow_scan(process, vpn, end)
                break
            gap_start, gap_end = gap
            if scan_cow and gap_start > vpn:
                majors += self._cow_scan(process, vpn, gap_start)
            vma = space.vma_at(gap_start)
            if vma is None:
                raise AddressSpaceError(
                    f"segfault: pid {process.pid} touched unmapped vpn {gap_start:#x}"
                )
            n, vpn = self.fault_span(
                process, vma, gap_start, min(gap_end, vma.end_vpn), write
            )
            majors += n
        process.touched_pages += n_pages
        return majors

    def _cow_scan(self, process: Process, vpn: int, end: int, fault=None) -> int:
        """Walk a mapped stretch, breaking COW leaves for a write touch.

        Each COW leaf goes through ``fault(process, vpn, True)``
        (default :meth:`fault`); the hypervisor passes its guest fault so
        the copy is nested-backed and seen by its fault hooks.
        """
        fault = fault or self.fault
        table = process.space.page_table
        majors = 0
        while (walk := table.next_leaf(vpn, end)) is not None:
            vpn = max(vpn, walk.base_vpn)
            if not walk.pte.flags & PteFlags.COW:
                vpn = walk.base_vpn + order_pages(walk.pte.order)
                continue
            result = fault(process, vpn, True)
            majors += 1
            vpn = result.vpn + order_pages(result.order) if not result.minor else vpn + 1
        return majors

    # -- fork / copy-on-write ----------------------------------------------------

    def fork(self, parent: Process, name: str = "") -> Process:
        """Create a COW child sharing all of the parent's frames.

        Copies by iterating the parent's page-table leaves once (VPN
        order) instead of walking every VPN of every VMA — sparse or
        huge-mapped parents fork in O(leaves), not O(pages).
        """
        child = self.create_process(name or f"{parent.name}-child", parent.preferred_node)
        self._cow_possible = True
        pairs = []
        for vma in parent.space.iter_vmas():
            child_vma = child.space.mmap(
                vma.n_pages, vma.flags, at_vpn=vma.start_vpn,
                name=vma.name, file=vma.file,
            )
            child_vma.offsets = list(vma.offsets)
            pairs.append((vma, child_vma))
        i = 0
        for base_vpn, pte in parent.space.page_table.iter_leaves():
            while i < len(pairs) and pairs[i][0].end_vpn <= base_vpn:
                i += 1
            child_vma = pairs[i][1]
            # Write-protect both sides; share the frame.
            pte.flags = (pte.flags | PteFlags.COW) & ~PteFlags.WRITE
            child.space.install(child_vma, base_vpn, pte.pfn, pte.order, pte.flags)
            self._account_frame(pte.pfn, pte.order, owner=child.pid)
        return child

    def _cow_break(self, process: Process, vma: Vma, base_vpn: int, old_pte) -> FaultResult:
        """Copy-on-write: give the writer a private copy via the policy."""
        self.cow_breaks += 1
        ctx = FaultContext(
            process.space, vma, base_vpn, old_pte.order, write=True,
            preferred_node=process.preferred_node, cow=True,
        )
        pfn, got_order = self.policy.allocate(ctx)
        if got_order < old_pte.order:
            # Could not find a huge block for the copy: split the COW
            # region, copying only the faulting base page would require
            # PTE splitting; keep whole-leaf copies and retry at 4K is
            # not possible without splitting, so fall back to mapping
            # the copy at base order page-by-page.
            raise MappingError("COW copy downgrade is not modelled")
        process.space.uninstall(vma, base_vpn)
        self._put_frame(old_pte.pfn, old_pte.order)
        process.space.install(
            vma, base_vpn, pfn, got_order, self._prot_flags(vma, write=True)
        )
        self._account_frame(pfn, got_order, owner=process.pid)
        self._update_contig_bit(process.space, base_vpn)
        latency = FAULT_BASE_US + 2 * ZERO_US_PER_PAGE * order_pages(got_order)
        self.fault_log.append(process.pid, got_order, latency, False)
        return FaultResult(base_vpn, pfn, got_order, cow_break=True)

    # -- page cache ---------------------------------------------------------------

    def file_read(self, file: CachedFile, index: int,
                  n_pages: int = 1) -> list[tuple[int, int]]:
        """Read pages ``[index, index + n_pages)`` of a file through the
        page cache; returns the ``(index, pfn)`` pairs it brought in.

        Every readahead window of the range is served in this one call
        (see :meth:`PageCache.read`); all file claims are order 0, so
        they cannot reach reclaim while the machine has as many free
        frames as the range claims.
        """
        return self.page_cache.read(
            file, index, self._file_allocate, n_pages, self.mem.free_pages
        )

    def drop_file(self, file: CachedFile) -> int:
        """Evict a file from the cache, freeing its frames."""
        return self.page_cache.drop(file, self._put_frame_span)

    def reclaim_pages(self, n_pages: int) -> int:
        """Direct reclaim: evict cached files (oldest first) until
        ``n_pages`` frames are freed.  Returns the number freed."""
        freed = 0
        for file in list(self.page_cache.iter_files()):
            if freed >= n_pages:
                break
            freed += self.drop_file(file)
        return freed

    def drop_caches(self) -> int:
        """Evict every cached file (``echo 3 > drop_caches`` analogue).

        Returns the number of pages released.  Used between consecutive
        benchmark runs when guest memory pressure calls for reclaim.
        """
        return sum(self.drop_file(f) for f in list(self.page_cache.iter_files()))

    def _file_allocate(self, file: CachedFile, index: int, n: int) -> list[int]:
        pfns = self.policy.allocate_file(file, index, n)
        for i, k in frame_stretches(pfns):
            self._account_frame_span(pfns[i], k)
        return pfns

    # -- migration (Ranger / Ingens service calls) -----------------------------------

    def migrate(self, process: Process, vma: Vma, base_vpn: int,
                desired_pfn: int, order: int) -> bool:
        """Move the leaf at ``base_vpn`` to ``desired_pfn`` if it is free."""
        zone_frames = self.mem.zone_of(desired_pfn).frames if self._pfn_valid(desired_pfn) else None
        if zone_frames is None:
            return False
        walk = process.space.page_table.walk(base_vpn)
        if not walk.hit or walk.pte.order != order:
            return False
        head_idx = zone_frames.index(desired_pfn) if zone_frames.contains(desired_pfn) else None
        old_pfn = walk.pte.pfn
        src_frames = self.mem.zone_of(old_pfn).frames
        if src_frames.mapcount[src_frames.index(old_pfn)] > 1:
            return False  # shared (COW) pages are not migrated
        if not self.mem.alloc_target(desired_pfn, order):
            return False
        flags = walk.pte.flags
        process.space.uninstall(vma, base_vpn)
        self._put_frame(old_pfn, order)
        process.space.install(vma, base_vpn, desired_pfn, order, flags)
        self._account_frame(desired_pfn, order, owner=process.pid)
        self._update_contig_bit(process.space, base_vpn)
        self.tlb_shootdowns += 1
        return True

    def swap_mappings(self, process: Process, vpn_a: int, vpn_b: int) -> bool:
        """Exchange the frames behind two same-order leaves of a process.

        Ranger's page-exchange primitive: when the frame a page should
        move to is occupied by another page of the *same process*, the
        two pages swap frames (two migrations + shootdowns).  Refuses
        COW-shared leaves and mismatched orders.
        """
        space = process.space
        wa = space.page_table.walk(vpn_a)
        wb = space.page_table.walk(vpn_b)
        if not (wa.hit and wb.hit) or wa.pte.order != wb.pte.order:
            return False
        if wa.base_vpn == wb.base_vpn:
            return False
        if (wa.pte.flags | wb.pte.flags) & PteFlags.COW:
            return False
        pages = order_pages(wa.pte.order)
        pfn_a, pfn_b = wa.pte.pfn, wb.pte.pfn
        wa.pte.pfn, wb.pte.pfn = pfn_b, pfn_a
        space.runs.remove(wa.base_vpn, pages)
        space.runs.remove(wb.base_vpn, pages)
        space.runs.add(wa.base_vpn, pfn_b, pages)
        space.runs.add(wb.base_vpn, pfn_a, pages)
        self._update_contig_bit(space, wa.base_vpn)
        self._update_contig_bit(space, wb.base_vpn)
        self.tlb_shootdowns += 2
        return True

    def relocate_leaf(self, process: Process, vpn: int) -> bool:
        """Move the leaf covering ``vpn`` to any free block (evacuation).

        Used by Ranger to clear foreign pages out of an anchor region
        when no equal-order swap is possible.
        """
        space = process.space
        walk = space.page_table.walk(vpn)
        if not walk.hit or walk.pte.flags & PteFlags.COW:
            return False
        vma = space.vma_at(walk.base_vpn)
        if vma is None:
            return False
        try:
            dest = self.mem.alloc_block(walk.pte.order, process.preferred_node)
        except OutOfMemoryError:
            return False
        order = walk.pte.order
        flags = walk.pte.flags
        old_pfn = walk.pte.pfn
        space.uninstall(vma, walk.base_vpn)
        self._put_frame(old_pfn, order)
        space.install(vma, walk.base_vpn, dest, order, flags)
        self._account_frame(dest, order, owner=process.pid)
        self._update_contig_bit(space, walk.base_vpn)
        self.tlb_shootdowns += 1
        return True

    def relocate_cache_page(self, pfn: int, avoid=None) -> bool:
        """Move a page-cache page off its frame to a free frame.

        ``avoid(pfn) -> bool`` lets the caller veto destinations (e.g.
        Ranger keeps relocated pages out of its anchor regions); vetoed
        frames are released again after the search.
        """
        if pfn not in self.page_cache.frame_owner:
            return False
        rejected: list[int] = []
        dest = None
        for _ in range(8):
            try:
                candidate = self.mem.alloc_block(0)
            except OutOfMemoryError:
                break
            if avoid is not None and avoid(candidate):
                rejected.append(candidate)
                continue
            dest = candidate
            break
        for r in rejected:
            self.mem.free_block(r, 0)
        if dest is None:
            return False
        if not self.page_cache.move_page(pfn, dest):
            self.mem.free_block(dest, 0)
            return False
        self._account_frame(dest, 0)
        self._put_frame(pfn, 0)
        self.tlb_shootdowns += 1
        return True

    def owner_vpn_of_frame(self, process: Process, pfn: int) -> int | None:
        """Which of the process's pages maps ``pfn`` (via run search)."""
        for run in process.space.runs:
            if run.start_pfn <= pfn < run.end_pfn:
                return pfn + run.offset
        return None

    def remap_region_huge(self, process: Process, vma: Vma, region_vpn: int,
                          new_pfn: int) -> None:
        """Ingens promotion: replace resident 4K pages with one huge leaf."""
        space = process.space
        self._put_frame_spans(
            (pfn, n) for _vpn, pfn, n in space.uninstall_region(vma, region_vpn)
        )
        pte = space.install(
            vma, region_vpn, new_pfn, HUGE_ORDER, self._prot_flags(vma, write=True)
        )
        self._account_frame(new_pfn, HUGE_ORDER, owner=process.pid)
        self._update_contig_bit(space, region_vpn, pte)
        self.tlb_shootdowns += 1

    # -- contiguity bit (SpOT table-fill filter, §IV-C) ------------------------------

    def pte_contiguous(self, process: Process, vpn: int) -> bool:
        """Is ``vpn`` part of a contiguous mapping >= the threshold?

        This is the reserved-PTE-bit check the nested walker performs
        before filling SpOT's prediction table.
        """
        return process.space.runs.run_length_at(vpn) >= self.contig_threshold

    def _update_contig_bit(self, space, base_vpn: int, pte=None) -> None:
        run = space.runs.find(base_vpn)
        if run is None or run.n_pages < self.contig_threshold:
            return
        if pte is None:
            pte = space.page_table.lookup(base_vpn)
        if pte is not None:
            pte.flags |= PteFlags.CONTIG

    # -- frame accounting --------------------------------------------------------------

    def _account_frame(self, pfn: int, order: int, owner: int | None = None) -> None:
        self.mem.zone_of(pfn).frames.map_block(pfn, order_pages(order), owner)

    def _account_frames(self, pfns, owner: int) -> None:
        """:meth:`_account_frame` of the distinct order-0 frames ``pfns``
        (an int64 array) with one column update per zone they touch."""
        lo, hi = int(pfns.min()), int(pfns.max())
        for zone in self.mem.zones:
            if hi < zone.base_pfn or lo >= zone.end_pfn:
                continue
            inside = pfns
            if lo < zone.base_pfn or hi >= zone.end_pfn:
                inside = pfns[(pfns >= zone.base_pfn) & (pfns < zone.end_pfn)]
            index = inside - zone.frames.base_pfn
            zone.frames.mapcount[index] += 1
            zone.frames.owner[index] = owner

    def _account_frame_span(
        self, pfn: int, n_pages: int, owner: int | None = None
    ) -> None:
        """Batched :meth:`_account_frame` over ``n_pages`` base frames."""
        while n_pages > 0:
            zone = self.mem.zone_of(pfn)
            take = min(n_pages, zone.end_pfn - pfn)
            frames = zone.frames
            i = frames.index(pfn)
            frames.mapcount[i:i + take] += 1
            if owner is not None:
                frames.owner[i:i + take] = owner
            pfn += take
            n_pages -= take

    def _put_frame(self, pfn: int, order: int) -> None:
        """Drop one mapping of a frame block; free it on last unmap."""
        frames = self.mem.zone_of(pfn).frames
        frames.unmap_block(pfn, order_pages(order))
        if frames.mapcount[frames.index(pfn)] <= 0:
            self.mem.free_block(pfn, order)

    def _put_frame_span(self, pfn: int, n_pages: int) -> None:
        """Batched :meth:`_put_frame` over ``n_pages`` base frames."""
        self._put_frame_spans(((pfn, n_pages),))

    def _put_frame_spans(self, spans) -> None:
        """Batched :meth:`_put_frame` over every frame of the ``(pfn,
        n_pages)`` stretches, in order.

        Drops one mapping per frame with one array op per stretch and
        frees each fully-unmapped stretch with one
        :meth:`BuddyAllocator.free_span`.  The buddy free state after
        coalescing is identical to per-page frees (the buddy
        representation of a free set is unique), reached in O(blocks)
        instead of O(pages).  Frames still mapped elsewhere (COW-shared)
        fall back to per-frame checks.
        """
        for pfn, n_pages in spans:
            while n_pages > 0:
                zone = self.mem.zone_of(pfn)
                take = min(n_pages, zone.end_pfn - pfn)
                i = pfn - zone.base_pfn
                counts = zone.frames.mapcount[i:i + take]
                counts -= 1
                if counts.max() <= 0:
                    zone.free_span(pfn, take)
                else:
                    for j in range(take):
                        if counts[j] <= 0:
                            zone.free_block(pfn + j, 0)
                pfn += take
                n_pages -= take

    def _pfn_valid(self, pfn: int) -> bool:
        try:
            self.mem.zone_of(pfn)
            return True
        except IndexError:
            return False

    # -- misc ---------------------------------------------------------------------------

    def _prot_flags(self, vma: Vma, write: bool) -> PteFlags:
        flags = PteFlags.USER | PteFlags.ACCESSED
        if vma.flags.writable:
            flags |= PteFlags.WRITE
        if write:
            flags |= PteFlags.DIRTY
        return flags

    def _maybe_tick(self) -> bool:
        self._faults_since_tick += 1
        if self._faults_since_tick >= self.tick_every_faults:
            self._faults_since_tick = 0
            self.policy.tick(self)
            return True
        return False

    def run_daemons(self) -> None:
        """Force an asynchronous-daemon pass (Ingens/Ranger epoch)."""
        self.policy.tick(self)

    def _install_block(self, process: Process, vma: Vma, vpn: int, pfn: int,
                       order: int) -> None:
        """Install an eager block as huge + base leaves as alignment allows."""
        remaining = order_pages(order)
        flags = self._prot_flags(vma, write=True)
        while remaining > 0:
            if (
                remaining >= HUGE_PAGES
                and vpn % HUGE_PAGES == 0
                and pfn % HUGE_PAGES == 0
            ):
                step_order = HUGE_ORDER
            else:
                step_order = 0
            process.space.install(vma, vpn, pfn, step_order, flags)
            self._account_frame(pfn, step_order, owner=process.pid)
            vpn += order_pages(step_order)
            pfn += order_pages(step_order)
            remaining -= order_pages(step_order)
        self._update_contig_bit(process.space, vma.start_vpn)

    # -- statistics --------------------------------------------------------------------

    @property
    def fault_events(self) -> list[FaultEvent]:
        """Every major fault as an event object (materialized from the log)."""
        return self.fault_log.events()

    @property
    def major_faults(self) -> int:
        """Major faults (incl. eager pre-allocation events, like ftrace)."""
        return len(self.fault_log)

    def fault_latencies_us(self) -> list[float]:
        """Latency of every major fault, in microseconds."""
        return self.fault_log.latencies_us()

    def fault_latency_sum_us(self) -> float:
        """Total fault latency without materializing the event list."""
        return self.fault_log.latency_sum_us()

    def reset_fault_stats(self) -> None:
        """Clear fault accounting (used between experiment phases)."""
        self.fault_log.clear()
        self.minor_faults = 0
        self.cow_breaks = 0
