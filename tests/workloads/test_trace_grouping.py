"""``Workload.trace`` against the per-site-mask generator it replaced.

The trace groups accesses by site with one stable sort and fills each
site's slice of the order; the reference below builds one boolean mask
per site instead.  Both make the same RNG calls in the same order, so
every trace must come out bit-identical, dtypes included.
"""

import numpy as np
import pytest

from repro.sim.config import TEST_SCALE
from repro.workloads import EXTRA_WORKLOADS, PAPER_SUITE, make_workload
from repro.workloads.base import AccessTrace, TraceSite

ALL_NAMES = [cls.name for cls in PAPER_SUITE + EXTRA_WORKLOADS]


def mask_trace(wl, n_accesses, seed=None):
    """The per-site-mask trace generator (reference)."""
    rng = np.random.default_rng(wl.seed if seed is None else seed)
    sites = list(wl.trace_sites())
    weights = np.array([s.weight for s in sites], dtype=float)
    weights /= weights.sum()
    choice = rng.choice(len(sites), size=n_accesses, p=weights)
    pc = np.empty(n_accesses, dtype=np.int32)
    vma = np.empty(n_accesses, dtype=np.int16)
    page = np.empty(n_accesses, dtype=np.int64)
    for i, site in enumerate(sites):
        mask = choice == i
        k = int(mask.sum())
        if k == 0:
            continue
        pc[mask] = site.pc
        vma[mask] = site.vma
        page[mask] = wl._pattern_pages(site, k, rng)
    return AccessTrace(pc=pc, vma=vma, page=page)


def assert_same_trace(got, want):
    for field in ("pc", "vma", "page"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_trace_matches_mask_reference(name, n):
    wl = make_workload(name, TEST_SCALE)
    assert_same_trace(wl.trace(n), mask_trace(wl, n))
    for seed in (1, 7, 12345):
        assert_same_trace(wl.trace(n, seed=seed), mask_trace(wl, n, seed=seed))


def test_site_without_accesses():
    """A zero-weight site draws nothing and consumes no RNG state."""
    wl = make_workload("bt", TEST_SCALE)
    sites = list(wl.trace_sites())
    idle = TraceSite(pc=0x7777, vma=0, pattern="uniform", weight=0.0)
    wl.trace_sites = lambda: sites[:2] + [idle] + sites[2:]
    for seed in (0, 3):
        got = wl.trace(1000, seed=seed)
        assert_same_trace(got, mask_trace(wl, 1000, seed=seed))
        assert 0x7777 not in got.pc
