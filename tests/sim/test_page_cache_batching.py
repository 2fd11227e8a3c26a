"""The batched page cache against its per-page reference, whole machine.

A readahead window is claimed in bulk (CA: one buddy call per streak of
targeted hits; every other policy: one bulk grab) and installed with
one ``MappingRuns`` update per stretch of consecutive frames; a dropped
file is freed one frame span and one run at a time.  None of this may
change anything a checkpoint records.  The page cache's ``MappingRuns``
``generation`` counters are pickled, so the stretch updates must advance
them exactly as the per-page ``add``/``remove`` loops did.  This module
runs one read/drop/reclaim script on two identically aged machines —
the kernel as it is, and one patched back to the per-page loops below —
and compares the logical digests of the pickled machines.  A second
script runs on a machine so small that readahead grabs come back short
and reclaim runs in the middle of a window.
"""

import random

import pytest

from repro.policies.base import PlacementPolicy
from repro.policies.ca import CAPaging
from repro.sim import transport
from repro.sim.config import SystemConfig
from repro.sim.kernel import Kernel
from repro.vm.page_cache import PageCache
from tests.policies.conftest import machine

#: Two nodes of 1024 pages, none reserved: the page cache soon fills
#: the machine.
TINY = SystemConfig(node_pages=(1024, 1024), churn_ops=50, reserve_fraction=0)


def per_page_drop_file(self, file):
    """``Kernel.drop_file`` freeing one frame per buddy call."""
    cache = self.page_cache
    count = 0
    for index, pfn in sorted(file.pages.items()):
        self._put_frame(pfn, 0)
        cache.runs[file.inode].remove(index, 1)
        cache.frame_owner.pop(pfn, None)
        count += 1
    file.pages.clear()
    return count


def per_page_read(self, file, index, allocate):
    """``PageCache.read`` installing the window one page at a time."""
    pfn = file.pages.get(index)
    if pfn is not None:
        self.last_fill = []
        return pfn
    self.fault_count += 1
    window = min(self.readahead_pages, file.n_pages - index)
    n = 0
    while n < window and (index + n) not in file.pages:
        n += 1
    pfns = allocate(file, index, n)
    self.readahead_count += max(0, n - 1)
    self.last_fill = []
    for i, frame in enumerate(pfns):
        file.pages[index + i] = frame
        self.runs[file.inode].add(index + i, frame, 1)
        self.frame_owner[frame] = (file.inode, index + i)
        self.last_fill.append((index + i, frame))
    return file.pages[index]


def per_page_default_allocate_file(self, file, index, n_pages):
    """``PlacementPolicy.allocate_file`` with one buddy call per page."""
    return [self._default_alloc(0, 0)[0] for _ in range(n_pages)]


def per_page_file_allocate(self, file, index, n):
    pfns = self.policy.allocate_file(file, index, n)
    for pfn in pfns:
        self._account_frame(pfn, 0)
    return pfns


def per_page_allocate_file(self, file, index, n_pages):
    """``CAPaging.allocate_file`` with one targeted claim per page."""
    pfns = []
    for i in range(n_pages):
        idx = index + i
        target = -1 if file.ca_offset is None else idx - file.ca_offset
        if target >= 0 and self._try_target(target, 0):
            pfns.append(target)
            continue
        placed = self._place_file(file, idx)
        if placed is None:
            self.stats.fallbacks += 1
            placed, _ = self._default_alloc(0, 0)
        pfns.append(placed)
    return pfns


def pin_some_targets(m, files):
    """Take frames a file's CA offset points at, so later readahead
    streaks break there (a miss) and re-place."""
    for file in files:
        if file.ca_offset is None:
            continue
        for index in range(5, file.n_pages, 23):
            target = index - file.ca_offset
            if index not in file.pages and m.policy._target_in_range(target, 0):
                m.mem.alloc_target(target, 0)


def run_script(m):
    """Reads across several files with interleaved anonymous faults and
    stolen CA targets, single drops, reclaim and a final partial flush."""
    kernel = m.kernel
    rng = random.Random(11)
    files = [
        kernel.page_cache.open(n, name=f"file{i}")
        for i, n in enumerate((300, 77, 1024, 513, 64, 2048))
    ]
    process = kernel.create_process("anon")
    vma = kernel.mmap(process, 4096)
    touched = 0
    for round_ in range(4):
        for file in files:
            for _ in range(30):
                kernel.file_read(file, rng.randrange(file.n_pages))
            kernel.touch_range(process, vma.start_vpn + touched, 97)
            touched += 97
        pin_some_targets(m, files)
        kernel.drop_file(files[round_])
        kernel.reclaim_pages(600)
    for file in files[::2]:
        kernel.drop_file(file)
    return files


def run_pressure_script(m):
    """Reads over files that together outgrow a ``TINY`` machine, with
    anonymous faults in between: the cache fills memory, so readahead
    windows start to come back short and reclaim evicts older files."""
    kernel = m.kernel
    rng = random.Random(5)
    files = [
        kernel.page_cache.open(n, name=f"big{i}")
        for i, n in enumerate((700, 900, 1100))
    ]
    process = kernel.create_process("anon")
    vma = kernel.mmap(process, 384)
    for round_ in range(6):
        for file in files:
            for _ in range(60):
                kernel.file_read(file, rng.randrange(file.n_pages))
        kernel.touch_range(process, vma.start_vpn + 64 * round_, 64)
    kernel.drop_file(files[1])
    return files


def digest(m):
    """Logical digest of the pickled machine.

    Ingens keys its ``_util`` table by ``id(space)``, a memory address
    that differs between any two machines (a ROADMAP item keys it by
    pid); re-key it by pid first, in its dict order, so the digests
    compare the same state.
    """
    util = getattr(m.policy, "_util", None)
    if util:
        pids = {id(p.space): p.pid for p in m.kernel.iter_processes()}
        m.policy._util = {(pids[s], region): n for (s, region), n in util.items()}
    return transport.blob_digest(transport.dumps(m))


def run_both(policy, script, monkeypatch, config=None):
    """Run ``script`` batched and on the per-page reference; returns the
    two machines and, for the batched run, the ``release`` span sizes
    and ``(free pages, window)`` at each readahead allocation."""
    kw = {} if config is None else {"config": config}
    batched = machine(policy, **kw)
    spans, windows = [], []
    put_frame_span = Kernel._put_frame_span
    file_allocate = Kernel._file_allocate

    def recording_file_allocate(self, file, index, n):
        windows.append((self.mem.free_pages, n))
        return file_allocate(self, file, index, n)

    with monkeypatch.context() as patch:
        patch.setattr(
            Kernel, "_put_frame_span",
            lambda self, pfn, n: spans.append(n) or put_frame_span(self, pfn, n),
        )
        patch.setattr(Kernel, "_file_allocate", recording_file_allocate)
        script(batched)
    reference = machine(policy, **kw)
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "drop_file", per_page_drop_file)
        patch.setattr(Kernel, "_file_allocate", per_page_file_allocate)
        patch.setattr(PageCache, "read", per_page_read)
        patch.setattr(PlacementPolicy, "allocate_file", per_page_default_allocate_file)
        patch.setattr(CAPaging, "allocate_file", per_page_allocate_file)
        script(reference)
    assert digest(batched) == digest(reference)
    # The generation counters are part of that digest; spell them out.
    generations = [
        [runs.generation for runs in m.kernel.page_cache.runs.values()]
        for m in (batched, reference)
    ]
    assert generations[0] == generations[1]
    assert batched.policy.stats == reference.policy.stats
    return batched, reference, spans, windows


POLICIES = ["ca", "thp", "ingens"]


@pytest.mark.parametrize("policy", POLICIES)
def test_batched_page_cache_matches_per_page_reference(policy, monkeypatch):
    batched, _, spans, _ = run_both(policy, run_script, monkeypatch)
    # Bulk readahead comes back as multi-page spans; CA's per-file
    # offset makes them run across windows.
    assert max(spans) > (8 if policy == "ca" else 1)
    if policy == "ca":
        # The script exercises streaks, misses and re-placements.
        stats = batched.policy.stats
        assert stats.targeted_hits and stats.targeted_misses and stats.placements


@pytest.mark.parametrize("policy", POLICIES)
def test_short_readahead_grab_matches_per_page_reference(policy, monkeypatch):
    _, _, _, windows = run_both(
        policy, run_pressure_script, monkeypatch, config=TINY
    )
    # Some window found fewer free frames than it needed, but not none:
    # the grab came back short and reclaim ran in the middle of it.
    assert any(0 < free < n for free, n in windows)
