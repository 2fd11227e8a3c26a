"""``PageTable.next_leaf`` against a linear ``walk`` scan.

``next_leaf(vpn, end)`` skips unmapped holes by jumping to the next
present index of each node, so it must return exactly the first hit of
``walk(v)`` for ``v`` in ``range(vpn, end)``.  The random tables mix
4 and 5 levels, 4 KiB and 2 MiB leaves (huge leaves also physically
next to 4 KiB stretches), PTEs with PRESENT cleared and the empty PT
nodes that :meth:`PageTable.unmap` leaves behind, spread over PMD slots
whose table indices favour 0, 1 and 511 so slots share nodes and sit at
node edges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import HUGE_ORDER, HUGE_PAGES
from repro.vm.flags import PteFlags
from repro.vm.page_table import LEVEL_BITS, PageTable

INDEX = st.one_of(st.sampled_from([0, 0, 1, 2, 510, 511]), st.integers(0, 511))
KINDS = ("huge", "pt", "pt_adjacent", "emptied_pt", "absent_huge")


@st.composite
def tables(draw):
    """A table and the PMD slots its leaves live in."""
    levels = draw(st.sampled_from([4, 5]))
    slots = draw(st.lists(
        st.tuples(*[INDEX] * (levels - 1)).map(
            lambda idx: sum(i << (LEVEL_BITS * k) for k, i in enumerate(idx))
        ),
        min_size=1, max_size=6, unique=True,
    ))
    slots.sort()
    table = PageTable(levels=levels)
    for ordinal, slot in enumerate(slots):
        kind = draw(st.sampled_from(KINDS))
        base_vpn = slot * HUGE_PAGES
        # Each slot owns a frame region; a 4K stretch marked adjacent
        # ends right where the next slot's region (a huge leaf when
        # that slot is huge) begins.
        region = (4 * ordinal + 2) * HUGE_PAGES
        if kind in ("huge", "absent_huge"):
            pte = table.map(base_vpn, region, order=HUGE_ORDER)
            if kind == "absent_huge":
                pte.flags &= ~PteFlags.PRESENT
            continue
        offsets = sorted(draw(st.sets(st.integers(0, HUGE_PAGES - 1),
                                      min_size=1, max_size=24)))
        if draw(st.booleans()):
            start = offsets[0]
            offsets = sorted(set(offsets) | set(range(start, min(start + 40, HUGE_PAGES))))
        first_pfn = region
        if kind == "pt_adjacent":
            first_pfn = region + 4 * HUGE_PAGES - len(offsets)
        ptes = [table.map(base_vpn + off, first_pfn + i)
                for i, off in enumerate(offsets)]
        if kind == "emptied_pt":
            for off in offsets:
                table.unmap(base_vpn + off)
            continue
        for i in draw(st.sets(st.integers(0, len(ptes) - 1), max_size=4)):
            ptes[i].flags &= ~PteFlags.PRESENT
    return table, slots


def linear_first_hit(table, slots, start, end):
    """First hit of ``walk(v)`` over ``[start, end)``.

    Every vpn inside a populated slot is walked; vpns outside them
    cannot hit, because :func:`assert_leaves_in_slots` shows no leaf
    lies there.
    """
    for slot in slots:
        for vpn in range(max(start, slot * HUGE_PAGES),
                         min(end, (slot + 1) * HUGE_PAGES)):
            walk = table.walk(vpn)
            if walk.hit:
                return walk
    return None


def assert_leaves_in_slots(table, slots):
    for base_vpn, _pte in table.iter_leaves():
        assert base_vpn // HUGE_PAGES in slots


@st.composite
def cases(draw):
    table, slots = draw(tables())
    points = st.tuples(
        st.sampled_from(slots), st.integers(-3, HUGE_PAGES + 3)
    ).map(lambda p: max(0, p[0] * HUGE_PAGES + p[1]))
    ranges = draw(st.lists(st.tuples(points, points), min_size=1, max_size=8))
    return table, slots, [tuple(sorted(r)) for r in ranges]


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_next_leaf_equals_linear_walk_scan(case):
    table, slots, ranges = case
    assert_leaves_in_slots(table, slots)
    for start, end in ranges:
        expected = linear_first_hit(table, slots, start, end)
        got = table.next_leaf(start, end)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.pte is expected.pte
            assert (got.base_vpn, got.levels) == (expected.base_vpn, expected.levels)


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_iterating_next_leaf_visits_every_present_leaf(case):
    table, slots, _ranges = case
    seen = []
    vpn, end = 0, max(slots) * HUGE_PAGES + HUGE_PAGES
    while (walk := table.next_leaf(vpn, end)) is not None:
        seen.append((walk.base_vpn, walk.pte))
        vpn = walk.base_vpn + (1 << walk.pte.order)
    expected = [(v, p) for v, p in table.iter_leaves() if p.present]
    assert [(v, id(p)) for v, p in seen] == [(v, id(p)) for v, p in expected]


def test_skips_emptied_pt_node_and_absent_huge_leaf():
    table = PageTable()
    table.map(7, 70)
    table.unmap(7)  # leaves an empty PT node behind
    absent = table.map(HUGE_PAGES, 0, order=HUGE_ORDER)
    absent.flags &= ~PteFlags.PRESENT
    far = (1 << (2 * LEVEL_BITS)) * 5 + 3  # five PMD nodes on
    last = table.map(far, 99)
    assert table.next_leaf(0, far) is None
    walk = table.next_leaf(0, far + 1)
    assert walk.pte is last and walk.base_vpn == far and walk.levels == 4


def test_empty_and_inverted_ranges():
    table = PageTable(levels=5)
    table.map(0, 1)
    assert table.next_leaf(1, 1 << 40) is None
    assert table.next_leaf(0, 0) is None
    assert table.next_leaf(5, 2) is None
