"""The batched page cache against its per-page reference, whole machine.

``Kernel.drop_file`` frees a dropped file one frame span at a time, and
CA readahead claims each streak of targeted hits with one buddy call.
Neither may change anything a checkpoint records.  In particular the
page cache's diagnostic ``MappingRuns`` must still change one page at a
time: their ``generation`` counters are pickled, so a per-stretch
``remove_span`` would leave the buddy state alone and still change every
chain checkpoint digest.  This module runs one read/drop/reclaim
script on two identically aged machines — the kernel as it is, and one
patched back to the per-page loops below — and compares the logical
digests of the pickled machines.
"""

import random

import pytest

from repro.policies.ca import CAPaging
from repro.sim import transport
from repro.sim.kernel import Kernel
from tests.policies.conftest import machine


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


def digest(m):
    return transport.blob_digest(transport.dumps(m))


@pytest.mark.parametrize("policy", ["ca", "thp"])
def test_batched_page_cache_matches_per_page_reference(policy, monkeypatch):
    batched = machine(policy)
    spans = []
    put_frame_span = Kernel._put_frame_span
    with monkeypatch.context() as patch:
        patch.setattr(
            Kernel, "_put_frame_span",
            lambda self, pfn, n: spans.append(n) or put_frame_span(self, pfn, n),
        )
        run_script(batched)
    reference = machine(policy)
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "drop_file", per_page_drop_file)
        patch.setattr(Kernel, "_file_allocate", per_page_file_allocate)
        patch.setattr(CAPaging, "allocate_file", per_page_allocate_file)
        run_script(reference)
    assert digest(batched) == digest(reference)
    # The generation counters are part of that digest; spell them out.
    generations = [
        [runs.generation for runs in m.kernel.page_cache.runs.values()]
        for m in (batched, reference)
    ]
    assert generations[0] == generations[1]
    assert batched.policy.stats == reference.policy.stats
    if policy == "ca":
        # The script exercises streaks, misses and re-placements, and
        # the contiguous readahead comes back as multi-page spans.
        stats = batched.policy.stats
        assert stats.targeted_hits and stats.targeted_misses and stats.placements
        assert max(spans) > 8

