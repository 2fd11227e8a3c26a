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
and reclaim runs in the middle of a window.  Both scripts mix
single-window reads with multi-window range reads.

A range read (``Kernel.file_read(file, index, n_pages)``) merges the
claims of back-to-back windows when the machine has the free frames
for them, and claims window by window otherwise.  The last tests
compare it against the one-window reads it replaces: a loop of
``file_read(file, w)`` over the window grid, natively and in a CA+CA
guest, on random resident holes and ranges, with and without memory
pressure.
"""

import pickle
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError
from repro.policies.base import PlacementPolicy
from repro.policies.ca import CAPaging
from repro.sim import transport
from repro.sim.config import SystemConfig
from repro.sim.kernel import Kernel
from repro.sim.machine import build_machine
from repro.virt.hypervisor import VirtualMachine
from repro.vm.page_cache import PageCache
from tests.policies.conftest import SMALL, machine

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


def per_page_read(self, file, index, allocate, n_pages=1, free_pages=0):
    """``PageCache.read`` claiming window by window and installing each
    window one page at a time."""
    fill = []
    for start in range(index, index + n_pages, self.readahead_pages):
        self.last_fill = []
        if start in file.pages:
            continue
        self.fault_count += 1
        window = min(self.readahead_pages, file.n_pages - start)
        n = 0
        while n < window and (start + n) not in file.pages:
            n += 1
        pfns = allocate(file, start, n)
        self.readahead_count += max(0, n - 1)
        for i, frame in enumerate(pfns):
            file.pages[start + i] = frame
            self.runs[file.inode].add(start + i, frame, 1)
            self.frame_owner[frame] = (file.inode, start + i)
            self.last_fill.append((start + i, frame))
        fill += self.last_fill
    return fill


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
    ranges = random.Random(12)
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
            start = ranges.randrange(file.n_pages)
            kernel.file_read(file, start, ranges.randint(1, file.n_pages - start))
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
    ranges = random.Random(6)
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
            start = ranges.randrange(file.n_pages)
            kernel.file_read(file, start, ranges.randint(1, file.n_pages - start))
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


# -- a range read against the one-window reads it replaces ---------------------


def window_loop(read, file, index, n_pages, window):
    """The range read as one-window reads over its window grid."""
    fill = []
    for start in range(index, index + n_pages, window):
        fill += read(file, start)
    return fill


def copy_digest(obj):
    """Logical digest of a pickled copy.  Copies of one pickled machine
    share even the ``id()`` keys of Ingens's table (the keys are stale
    ints after unpickling), so they compare as they are."""
    return transport.blob_digest(transport.dumps(obj))


@lru_cache(maxsize=None)
def base_machine(policy, config):
    return pickle.dumps(machine(policy, config=config))


@st.composite
def read_cases(draw, max_file, max_anon):
    """A file, the windows read before the range (resident holes), the
    anonymous pages faulted in between and the range itself."""
    n_pages = draw(st.integers(1, max_file))
    holes = draw(st.lists(st.integers(0, n_pages - 1), max_size=12))
    anon = draw(st.integers(0, max_anon))
    index = draw(st.integers(0, n_pages - 1))
    length = draw(st.integers(1, n_pages - index))
    return n_pages, holes, anon, index, length


def prepared_machine(policy, config, case):
    """A copy of the aged machine with a warm file and ``case``'s holes
    read, CA targets stolen and anonymous pages faulted; returns the
    pickled machine, ready for the range read."""
    n_pages, holes, anon, _, _ = case
    m = pickle.loads(base_machine(policy, config))
    kernel = m.kernel
    older = kernel.page_cache.open(300, name="older")
    kernel.file_read(older, 0, older.n_pages)
    file = kernel.page_cache.open(n_pages, name="file")
    for index in holes:
        kernel.file_read(file, index)
    pin_some_targets(m, [file])
    if anon:
        process = kernel.create_process("anon")
        vma = kernel.mmap(process, anon)
        kernel.touch_range(process, vma.start_vpn, anon)
    return pickle.dumps(m)


def check_range_read(policy, config, case, monkeypatch):
    """Range read vs the window loop on two copies of one machine;
    returns whether the range read merged windows into one claim."""
    _, _, _, index, length = case
    state = prepared_machine(policy, config, case)
    claims = []
    file_allocate = Kernel._file_allocate

    def recording_file_allocate(self, file, start, n):
        claims.append(n)
        return file_allocate(self, file, start, n)

    ranged = pickle.loads(state)
    file = ranged.kernel.page_cache.find("file", case[0])
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "_file_allocate", recording_file_allocate)
        fill = ranged.kernel.file_read(file, index, length)
    looped = pickle.loads(state)
    kernel = looped.kernel
    window = kernel.page_cache.readahead_pages
    loop_fill = window_loop(
        kernel.file_read, kernel.page_cache.find("file", case[0]),
        index, length, window,
    )
    assert fill == loop_fill
    counts = [
        (c.fault_count, c.readahead_count, c.last_fill)
        for c in (ranged.kernel.page_cache, looped.kernel.page_cache)
    ]
    assert counts[0] == counts[1]
    assert ranged.policy.stats == looped.policy.stats
    assert copy_digest(ranged) == copy_digest(looped)
    return any(n > window for n in claims)


@settings(max_examples=15, deadline=None)
@given(policy=st.sampled_from(POLICIES), case=read_cases(max_file=700, max_anon=600))
def test_range_read_matches_window_loop(policy, case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_range_read(policy, SMALL, case, monkeypatch)


@settings(max_examples=15, deadline=None)
@given(policy=st.sampled_from(POLICIES), case=read_cases(max_file=1500, max_anon=1700))
def test_range_read_under_pressure_matches_window_loop(policy, case):
    # On TINY the range's claim often exceeds the free frames: windows
    # claim one by one and reclaim may run between them.
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_range_read(policy, TINY, case, monkeypatch)


@pytest.mark.parametrize("policy", POLICIES)
def test_range_read_merges_windows_only_while_memory_lasts(policy, monkeypatch):
    # 1448 free frames after the anonymous faults: the first 800 pages
    # merge, the other 700 do not fit in the 648 left and reclaim drops
    # the file being read part way through the range.
    merged = check_range_read(policy, TINY, (1500, [], 600, 0, 800), monkeypatch)
    assert merged
    case = (1500, list(range(0, 800, 8)), 600, 800, 700)
    assert not check_range_read(policy, TINY, case, monkeypatch)
    m = pickle.loads(prepared_machine(policy, TINY, case))
    file = m.kernel.page_cache.find("file", 1500)
    fill = m.kernel.file_read(file, 800, 700)
    assert len(fill) == 700 and file.resident_pages < 700


# -- the same in a guest -----------------------------------------------------


#: A CA+CA VM whose guest (3072 frames free after boot) is small enough
#: for page-cache reads to run it out of memory.
GUEST_PAGES = 6144


@lru_cache(maxsize=None)
def base_vm():
    return pickle.dumps(VirtualMachine(build_machine("ca", SMALL), GUEST_PAGES, "ca"))


@settings(max_examples=15, deadline=None)
@given(case=read_cases(max_file=2500, max_anon=2400))
def test_guest_range_read_matches_window_loop(case):
    n_pages, holes, anon, index, length = case
    vm = pickle.loads(base_vm())
    guest = vm.guest_kernel
    older = guest.page_cache.open(500, name="older")
    vm.guest_file_read(older, 0, older.n_pages)
    file = guest.page_cache.open(n_pages, name="file")
    for hole in holes:
        vm.guest_file_read(file, hole)
    if anon:
        process = vm.create_guest_process("anon")
        vma = vm.guest_mmap(process, anon)
        vm.guest_touch_range(process, vma.start_vpn, anon)
    state = pickle.dumps(vm)

    ranged = pickle.loads(state)
    fill = ranged.guest_file_read(
        ranged.guest_kernel.page_cache.find("file", n_pages), index, length
    )
    looped = pickle.loads(state)
    loop_fill = window_loop(
        looped.guest_file_read, looped.guest_kernel.page_cache.find("file", n_pages),
        index, length, looped.guest_kernel.page_cache.readahead_pages,
    )
    assert fill == loop_fill
    assert ranged.nested_faults == looped.nested_faults
    assert ranged.guest_mem.free_pages == looped.guest_mem.free_pages
    assert ranged.host.mem.free_pages == looped.host.mem.free_pages
    assert copy_digest(ranged) == copy_digest(looped)


def test_guest_range_read_under_pressure_reclaims_like_window_loop():
    vm = pickle.loads(base_vm())
    guest = vm.guest_kernel
    process = vm.create_guest_process("anon")
    vma = vm.guest_mmap(process, 1500)
    vm.guest_touch_range(process, vma.start_vpn, 1500)
    file = guest.page_cache.open(2000, name="file")
    vm.guest_file_read(file, 0, 896)
    state = pickle.dumps(vm)
    assert guest.mem.free_pages < 1000

    ranged = pickle.loads(state)
    ranged_file = ranged.guest_kernel.page_cache.find("file", 2000)
    fill = ranged.guest_file_read(ranged_file, 896, 1000)
    looped = pickle.loads(state)
    window_loop(
        looped.guest_file_read, looped.guest_kernel.page_cache.find("file", 2000),
        896, 1000, looped.guest_kernel.page_cache.readahead_pages,
    )
    # Reclaim evicted the file being read part way through the range.
    assert len(fill) == 1000 and ranged_file.resident_pages < 1000
    assert ranged.nested_faults == looped.nested_faults > 0
    assert copy_digest(ranged) == copy_digest(looped)


# -- malformed reads -----------------------------------------------------------


@pytest.mark.parametrize("index,n_pages", [(0, 0), (0, -1), (-1, 1), (60, 5), (64, 1)])
def test_malformed_range_read_rejected(index, n_pages):
    m = pickle.loads(base_machine("thp", TINY))
    file = m.kernel.page_cache.open(64, name="small")
    with pytest.raises(AddressSpaceError):
        m.kernel.file_read(file, index, n_pages)
    vm = pickle.loads(base_vm())
    guest_file = vm.guest_kernel.page_cache.open(64, name="small")
    nested = vm.nested_faults
    with pytest.raises(AddressSpaceError):
        vm.guest_file_read(guest_file, index, n_pages)
    assert not guest_file.pages and vm.nested_faults == nested
