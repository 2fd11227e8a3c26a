"""The shared run index of the run-keyed scheme machines.

:meth:`RunIndex.from_view` indexes a replay's walks over the view's own
run table (checked, never sorted); :meth:`RunIndex.from_stream` derives
the table from a raw stream with one sort.  Both must describe the same
runs, and a view whose table is not sorted and disjoint must be refused
— the scheme machines then index the stream themselves or take their
scalar loops, with counters and end states unchanged.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.hw.translation import RunIndex, TranslationView
from tests.hw.test_engine_differential import (
    assert_paths_agree,
    native_state,
    virt_state,
)


@pytest.fixture(scope="module")
def thp_virt():
    vm, wl, r = virt_state("xsbench", policy="thp")
    return vm, wl, r, wl.trace(20_000)


def fresh_view(thp_virt):
    vm, _, r, _ = thp_virt
    return TranslationView.virtualized(vm, r.process, force_4k=True)


def assert_same_runs(a: RunIndex, b: RunIndex):
    """Same run per walk, same referenced runs, same grouping."""
    np.testing.assert_array_equal(a.starts[a.ids], b.starts[b.ids])
    np.testing.assert_array_equal(a.lens[a.ids], b.lens[b.ids])
    for x, y in ((a, b), (b, a)):
        rows = np.unique(x.ids)
        np.testing.assert_array_equal(x.starts[rows], np.unique(y.starts[y.ids]))
    (ra, oa, ba, ea), (rb, ob, bb, eb) = a.groups, b.groups
    np.testing.assert_array_equal(a.starts[ra], b.starts[rb])
    np.testing.assert_array_equal(oa, ob)
    np.testing.assert_array_equal(ea - ba, eb - bb)


class TestViewIndexMatchesStream:
    def test_native_thp(self):
        wl, r = native_state()
        view = TranslationView.native(r.process)
        t = view.resolve(wl.trace(20_000), r.vma_start_vpns)
        from_view = RunIndex.from_view(view, t)
        from_stream = RunIndex.from_stream(t.vpn, t.run_start, t.run_len)
        assert from_view is not None and from_stream is not None
        assert_same_runs(from_view, from_stream)

    def test_virtualized_4k(self, thp_virt):
        _, _, r, trace = thp_virt
        view = fresh_view(thp_virt)
        t = view.resolve(trace, r.vma_start_vpns)
        from_view = RunIndex.from_view(view, t)
        from_stream = RunIndex.from_stream(t.vpn, t.run_start, t.run_len)
        assert from_view is not None and from_stream is not None
        assert from_view.starts is view.starts  # no table rebuilt
        assert_same_runs(from_view, from_stream)

    def test_groups_list_walks_in_stream_order(self):
        vpns = np.asarray([50, 10, 11, 52, 12, 30], dtype=np.int64)
        starts = np.asarray([50, 10, 10, 50, 10, 30], dtype=np.int64)
        lens = np.asarray([5, 3, 3, 5, 3, 1], dtype=np.int64)
        index = RunIndex.from_stream(vpns, starts, lens)
        rows, order, begins, ends = index.groups
        assert index.starts[rows].tolist() == [50, 10, 30]
        assert [order[b:e].tolist() for b, e in zip(begins, ends)] == [
            [0, 3], [1, 2, 4], [5],
        ]


class TestRefusedTables:
    def test_unsorted_view_refused(self, thp_virt):
        _, wl, r, trace = thp_virt
        view = fresh_view(thp_virt)
        # Swap two adjacent rows' starts, frames and lengths (not their
        # ends, so every lookup still lands on a mapped row): the table
        # is out of order and those rows' walks fall outside their runs.
        for arr in (view.starts, view.ppns, view.lengths):
            arr[[3, 4]] = arr[[4, 3]]
        t = view.resolve(trace, r.vma_start_vpns)
        assert RunIndex.from_view(view, t) is None
        assert RunIndex.from_stream(t.vpn, t.run_start, t.run_len) is None
        assert_paths_agree(view, trace, r.vma_start_vpns, wl)

    def test_overlapping_view_refused(self, thp_virt):
        _, wl, r, trace = thp_virt
        view = fresh_view(thp_virt)
        # Stretch a run over its successor.
        view.ends[3] = view.ends[4]
        view.lengths[3] = view.ends[3] - view.starts[3]
        t = view.resolve(trace, r.vma_start_vpns)
        assert RunIndex.from_view(view, t) is None
        assert RunIndex.from_stream(t.vpn, t.run_start, t.run_len) is None
        assert_paths_agree(view, trace, r.vma_start_vpns, wl)

    def test_walk_disagreeing_with_its_row_refused(self):
        view = SimpleNamespace(
            starts=np.asarray([0, 10], dtype=np.int64),
            lengths=np.asarray([5, 5], dtype=np.int32),
        )
        walks = SimpleNamespace(
            vpn=np.asarray([1, 11], dtype=np.int64),
            run_start=np.asarray([0, 10], dtype=np.int64),
            run_len=np.asarray([5, 5], dtype=np.int32),
            run_id=np.asarray([0, 1], dtype=np.int32),
        )
        assert RunIndex.from_view(view, walks) is not None
        for field, value in (
            ("run_id", [0, 2]),  # row out of range
            ("run_start", [0, 9]),  # start differs from the row
            ("run_len", [5, 4]),  # length differs from the row
            ("vpn", [1, 15]),  # access outside its run
        ):
            bad = SimpleNamespace(**vars(walks))
            setattr(bad, field, np.asarray(value, dtype=getattr(walks, field).dtype))
            assert RunIndex.from_view(view, bad) is None, field

    @pytest.mark.parametrize("stream", [
        ([1, 2], [0, 0], [5, 6]),  # one start, two lengths
        ([1, 7], [0, 5], [6, 6]),  # overlapping runs
        ([1, 9], [0, 5], [5, 3]),  # access outside its run
    ], ids=["two-lengths", "overlap", "outside"])
    def test_invalid_stream_refused(self, stream):
        vpns, starts, lens = (np.asarray(a, dtype=np.int64) for a in stream)
        assert RunIndex.from_stream(vpns, starts, lens) is None
