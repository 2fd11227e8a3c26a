"""``MappingRuns`` stretch updates against the page-by-page loops.

The page cache installs a readahead window with one
:meth:`MappingRuns.add_stretch` per stretch of consecutive frames, and
drops a file with one :meth:`MappingRuns.remove_stretches`.  Both must
leave the same runs *and* the same ``generation`` as the single-page
``add`` / ``remove`` loops they replace, because ``generation`` is
pickled into checkpoints.  Each test drives two ``MappingRuns`` with one
operation script: the stretch methods on one, the page loops on the
other, and compares them after every operation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.mapping_runs import MappingRuns, frame_stretches

FILE_PAGES = 64


def state(runs):
    return [(r.start_vpn, r.start_pfn, r.n_pages) for r in runs], runs.generation


class Pair:
    """A file's runs kept two ways, plus its resident ``index -> pfn``."""

    def __init__(self):
        self.stretch = MappingRuns()
        self.paged = MappingRuns()
        self.pages: dict[int, int] = {}
        #: Merge kinds seen on reads: "pred", "succ", "both".
        self.merges: set[str] = set()

    def offset_at(self, index):
        pfn = self.pages.get(index)
        return None if pfn is None else index - pfn

    def read(self, index, length, base, breaks):
        """Install a window like ``PageCache.read``: stop at the first
        resident page; frames jump after each page listed in ``breaks``."""
        if index in self.pages:
            return
        n = 0
        while n < min(length, FILE_PAGES - index) and index + n not in self.pages:
            n += 1
        pfns, pfn = [], base
        for i in range(n):
            pfns.append(pfn)
            pfn += 1 + (7 if i in breaks else 0)
        for i, k in frame_stretches(pfns):
            vpn = index + i
            pred = self.offset_at(vpn - 1) == vpn - pfns[i]
            succ = self.offset_at(vpn + k) == vpn - pfns[i]
            if pred or succ:
                self.merges.add("both" if pred and succ else "pred" if pred else "succ")
            self.stretch.add_stretch(vpn, pfns[i], k)
        for i, frame in enumerate(pfns):
            self.paged.add(index + i, frame, 1)
            self.pages[index + i] = frame

    def move(self, index, new_pfn):
        """``PageCache.move_page``'s runs update, on both copies."""
        if index not in self.pages:
            return
        for runs in (self.stretch, self.paged):
            runs.remove(index, 1)
            runs.add(index, new_pfn, 1)
        self.pages[index] = new_pfn

    def drop(self, lo, hi):
        """Evict ``[lo, hi)``; the reference removes resident pages one
        at a time in index order, like the old ``PageCache.drop``."""
        resident = sorted(i for i in self.pages if lo <= i < hi)
        removed = self.stretch.remove_stretches(lo, hi)
        # The chunks are the resident pages with their frames, in order.
        assert [(v + j, p + j) for v, p, n in removed for j in range(n)] == [
            (i, self.pages[i]) for i in resident
        ]
        for index in resident:
            self.paged.remove(index, 1)
            del self.pages[index]

    def check(self):
        assert state(self.stretch) == state(self.paged)


def base_for(pair, index, mode, fresh):
    """A window's first frame: continue the predecessor's offset, meet
    the next resident page's offset, or a fresh frame."""
    if mode == "pred" and pair.offset_at(index - 1) is not None:
        return index - pair.offset_at(index - 1)
    if mode == "succ":
        nxt = min((i for i in pair.pages if i > index), default=None)
        if nxt is not None:
            return index - pair.offset_at(nxt)
    return fresh


indices = st.integers(0, FILE_PAGES - 1)
reads = st.tuples(
    st.just("read"), indices, st.integers(1, 12),
    st.sampled_from(["pred", "succ", "fresh"]), st.integers(0, 4000),
    st.frozensets(st.integers(0, 11), max_size=3),
)
moves = st.tuples(
    st.just("move"), indices, st.sampled_from(["pred", "succ", "fresh"]),
    st.integers(0, 4000),
)
drops = st.tuples(st.just("drop"), indices, st.integers(1, FILE_PAGES))


def run(pair, ops):
    for op in ops:
        if op[0] == "read":
            _, index, length, mode, fresh, breaks = op
            pair.read(index, length, base_for(pair, index, mode, fresh), breaks)
        elif op[0] == "move":
            _, index, mode, fresh = op
            pair.move(index, base_for(pair, index, mode, fresh))
        else:
            _, lo, length = op
            pair.drop(lo, min(FILE_PAGES, lo + length))
        pair.check()
    # Whole-file drop, as PageCache.drop does it.
    pair.drop(0, FILE_PAGES)
    pair.check()
    assert len(pair.stretch) == 0


@given(st.lists(st.one_of(reads, reads, moves, drops), max_size=40))
@settings(max_examples=200, deadline=None)
def test_stretch_updates_match_page_loops(ops):
    run(Pair(), ops)


def test_script_covers_every_merge_kind():
    """A fixed script that hits each case the property test relies on."""
    pair = Pair()
    run(pair, [
        ("read", 0, 8, "fresh", 100, frozenset()),       # 0..7 -> 100..107
        ("read", 8, 4, "pred", 0, frozenset()),          # pred merge
        ("read", 20, 8, "fresh", 300, frozenset({2})),   # two stretches
        ("read", 16, 8, "succ", 0, frozenset()),         # partial: 16..19, succ
        ("drop", 3, 2),                                  # punch a hole
        ("read", 3, 8, "pred", 0, frozenset()),          # fills it: both
        ("move", 5, "fresh", 900),                       # split by migration
        ("move", 5, "pred", 0),                          # and re-merged
        ("read", 40, 12, "fresh", 2000, frozenset({0, 5, 6})),
        ("drop", 42, 30),
    ])
    assert pair.merges == {"pred", "succ", "both"}


def test_frame_stretches():
    assert frame_stretches([]) == []
    assert frame_stretches([5]) == [(0, 1)]
    assert frame_stretches([5, 6, 7, 3, 4, 9]) == [(0, 3), (3, 2), (5, 1)]
