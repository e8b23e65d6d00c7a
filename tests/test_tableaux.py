import gc
import itertools
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from staircase_groth import grothendieck as gr
from staircase_groth import tableaux as tb
from staircase_groth.shapes import (
    EMPTY,
    SkewShape,
    contains,
    graded_lex_key,
    partitions_of,
    staircase,
    star_join,
    subpartitions,
)
from staircase_groth.symfunc import TruncationProfile
from staircase_groth.tableaux import RPP, SSYT, SVT

import fillings
from fillings import SetFilling


def test_is_ssyt_display():
    t = SetFilling(SkewShape((5, 4, 3, 2, 1), (3, 1)), {
        (1, 4): (2,), (1, 5): (4,),
        (2, 2): (1,), (2, 3): (1,), (2, 4): (4,),
        (3, 1): (1,), (3, 2): (2,), (3, 3): (2,),
        (4, 1): (3,), (4, 2): (4,),
        (5, 1): (6,),
    })
    assert fillings.is_ssyt(t)
    assert fillings.content_of(t, SSYT) == (3, 3, 1, 3, 0, 1)


def test_is_ssyt_trivial():
    one = SetFilling(SkewShape((1,), EMPTY), {(1, 1): (1,)})
    assert fillings.is_ssyt(one)
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (1,)})
    assert not fillings.is_ssyt(col)
    assert fillings.is_rpp(col)


def test_is_rpp_display():
    t = SetFilling(SkewShape((5, 4, 3), (1, 1)), {
        (1, 2): (1,), (1, 3): (2,), (1, 4): (2,), (1, 5): (4,),
        (2, 2): (1,), (2, 3): (2,), (2, 4): (5,),
        (3, 1): (1,), (3, 2): (2,), (3, 3): (2,),
    })
    assert fillings.is_rpp(t)
    assert fillings.content_of(t, RPP) == (2, 3, 0, 1, 1)


def test_is_rpp_row_decrease_fails():
    t = SetFilling(SkewShape((2,), EMPTY), {(1, 1): (2,), (1, 2): (1,)})
    assert not fillings.is_rpp(t)


def svt_display():
    return SetFilling(SkewShape((5, 4, 3), (2, 1)), {
        (1, 3): (1, 2), (1, 4): (2, 3, 4), (1, 5): (7,),
        (2, 2): (3,), (2, 3): (3, 5), (2, 4): (5,),
        (3, 1): (2,), (3, 2): (4, 5, 6), (3, 3): (6,),
    })


def test_is_svt_display():
    t = svt_display()
    assert fillings.is_svt(t)
    assert t.total_size() == 15
    assert sum(fillings.content_of(t, SVT)) == 15


def test_is_svt_small_cases():
    row = SetFilling(SkewShape((2,), EMPTY), {(1, 1): (1,), (1, 2): (1,)})
    assert fillings.is_svt(row)
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (1,)})
    assert not fillings.is_svt(col)
    overlap = SetFilling(SkewShape((2,), EMPTY), {(1, 1): (1, 2), (1, 2): (2,)})
    assert fillings.is_svt(overlap)


def test_content_kind_mismatch():
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (1,)})
    with pytest.raises(ValueError):
        fillings.content_of(col, SSYT)
    assert fillings.content_of(col, RPP) == (1,)


def test_set_filling_validation():
    with pytest.raises(ValueError):
        SetFilling(SkewShape((1,), EMPTY), {})
    with pytest.raises(ValueError):
        SetFilling(SkewShape((1,), EMPTY), {(1, 1): ()})
    with pytest.raises(ValueError):
        SetFilling(SkewShape((1,), EMPTY), {(1, 1): (2, 1)})
    with pytest.raises(ValueError):
        SetFilling(SkewShape((1,), EMPTY), {(1, 1): (1,), (1, 2): (1,)})


def test_reverse_reading_word_display():
    assert fillings.reverse_reading_word(svt_display()) == \
        (7, 4, 3, 2, 5, 2, 1, 5, 3, 6, 3, 6, 5, 4, 2)


def test_reverse_reading_word_small():
    cell = SetFilling(SkewShape((1,), EMPTY), {(1, 1): (1, 3)})
    assert fillings.reverse_reading_word(cell) == (3, 1)
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (2,)})
    assert fillings.reverse_reading_word(col) == (1, 2)
    empty = SetFilling(SkewShape((2, 1), (2, 1)), {})
    assert fillings.reverse_reading_word(empty) == ()


def test_is_lattice_examples():
    assert fillings.is_lattice((1, 1, 2, 1, 3, 2, 2))
    assert not fillings.is_lattice((1, 2, 1, 2, 2, 1))
    assert fillings.is_lattice(())


def instance_order_lattice(word):
    """Oracle from the instance phrasing: the i-th a+1 after the i-th a."""
    positions = {}
    for i, v in enumerate(word):
        positions.setdefault(v, []).append(i)
    top = max(word, default=0)
    for a in range(1, top):
        pa = positions.get(a, [])
        pb = positions.get(a + 1, [])
        if len(pb) > len(pa):
            return False
        for i, pos_b in enumerate(pb):
            if pos_b < pa[i]:
                return False
    return True


def test_lattice_matches_instance_order_exhaustively():
    for length in range(0, 11):
        for word in itertools.product((1, 2, 3), repeat=length):
            assert fillings.is_lattice(word) == instance_order_lattice(word), word


def test_enumerate_counts():
    assert len(list(fillings.enumerate_fillings(SkewShape((2, 1), EMPTY), SSYT, 2))) == 2
    assert len(list(fillings.enumerate_fillings(SkewShape((2, 2), (1,)), RPP, 2))) == 5
    svt = list(fillings.enumerate_fillings(SkewShape((1,), EMPTY), SVT, 2))
    assert [t.entries[(1, 1)] for t in svt] == [(1,), (1, 2), (2,)]


def test_enumerate_rejects_zero_alphabet():
    with pytest.raises(ValueError):
        list(fillings.enumerate_fillings(SkewShape((1,), EMPTY), SSYT, 0))
    with pytest.raises(ValueError):
        list(fillings.enumerate_fillings(SkewShape((1,), EMPTY), "tableau", 2))


def test_enumerate_is_deterministic_and_duplicate_free():
    shape = SkewShape((2, 2), (1,))
    for kind, cap in ((SSYT, None), (RPP, None), (SVT, 5)):
        a = list(fillings.enumerate_fillings(shape, kind, 3, max_total_size=cap))
        b = list(fillings.enumerate_fillings(shape, kind, 3, max_total_size=cap))
        assert [t.entries for t in a] == [t.entries for t in b]
        seen = {tuple(sorted(t.entries.items())) for t in a}
        assert len(seen) == len(a)


def brute_fillings(shape, kind, max_entry, max_total_size=None):
    """Oracle: assign every combination, filter by the validity predicate."""
    cells = shape.cells()
    if kind in (SSYT, RPP):
        candidates = [(v,) for v in range(1, max_entry + 1)]
    else:
        candidates = [c for size in range(1, max_entry + 1)
                      for c in itertools.combinations(range(1, max_entry + 1), size)]
    check = {SSYT: fillings.is_ssyt, RPP: fillings.is_rpp, SVT: fillings.is_svt}[kind]
    out = []
    for combo in itertools.product(candidates, repeat=len(cells)):
        t = SetFilling(shape, dict(zip(cells, combo)))
        if max_total_size is not None and t.total_size() > max_total_size:
            continue
        if check(t):
            out.append(t)
    return out


@pytest.mark.parametrize("kind,max_entry,cap", [
    (SSYT, 2, None), (SSYT, 3, None),
    (RPP, 2, None), (RPP, 3, None),
    (SVT, 2, None), (SVT, 3, 5),
])
def test_enumerate_matches_brute_force(kind, max_entry, cap):
    for shape in (SkewShape((2, 1), EMPTY), SkewShape((2, 2), (1,)),
                  SkewShape((1, 1), EMPTY)):
        fast = {tuple(sorted(t.entries.items()))
                for t in fillings.enumerate_fillings(shape, kind, max_entry,
                                               max_total_size=cap)}
        slow = {tuple(sorted(t.entries.items()))
                for t in brute_fillings(shape, kind, max_entry, cap)}
        assert fast == slow


def partition_content_counter(shape, kind, max_entry, cap=None):
    counter = Counter()
    for t in fillings.enumerate_fillings(shape, kind, max_entry, max_total_size=cap):
        c = fillings.content_of(t, kind)
        if all(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            counter[c] += 1
    return dict(counter)


@pytest.mark.parametrize("kind", [SSYT, RPP])
def test_content_counts_match_stream(kind):
    for shape in (SkewShape((2, 1), EMPTY), SkewShape((2, 2), (1,)),
                  SkewShape((3, 1), (1,)), SkewShape((2, 2, 1), (1,))):
        # a value per cell reaches every content
        expected = partition_content_counter(shape, kind, shape.size())
        got = tb.content_counts(shape, kind)
        assert got == expected


def test_svt_content_counts_match_stream():
    for shape in (SkewShape((2, 1), EMPTY), SkewShape((2, 2), (1,))):
        cap = shape.size() + 2
        expected = partition_content_counter(shape, SVT, cap, cap)
        got = tb.content_counts(shape, SVT, max_total_size=cap)
        assert got == expected


def signed_content_counter(shape, max_entry, cap):
    signed = Counter()
    for t in fillings.enumerate_fillings(shape, SVT, max_entry, max_total_size=cap):
        c = fillings.content_of(t, SVT)
        if all(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            signed[c] += -1 if (t.total_size() - shape.size()) % 2 else 1
    return {k: v for k, v in signed.items() if v}


def test_signed_svt_counts_match_stream():
    for shape in (SkewShape((2, 1), EMPTY), SkewShape((2, 2), (1,)),
                  SkewShape((3, 2), EMPTY), SkewShape((2, 2, 1), (1,))):
        cap = shape.size() + 3
        expected = signed_content_counter(shape, cap, cap)
        got = tb.signed_svt_counts(shape, max_total_size=cap)
        assert got == expected


# skew shapes inside partitions of at most 7 cells, largest first: most
# of them are small, and hypothesis favours the first entries
SMALL_SHAPES = sorted({SkewShape(lam, mu) for d in range(8)
                       for lam in partitions_of(d) for mu in subpartitions(lam)},
                      key=lambda s: (-s.size(), s.outer, s.inner))


def stream_counts(shape, m):
    """Oracle for the four sweeps: the filtered filling stream."""
    cap = shape.size() + 2
    return (partition_content_counter(shape, SSYT, m),
            partition_content_counter(shape, RPP, m),
            partition_content_counter(shape, SVT, m, cap),
            signed_content_counter(shape, m, cap))


def engine_requests(shape, extra=2):
    """The four sweeps, as (table kind, request extra degree, call); the
    plain and signed svt sweeps read one table, capped at |shape| +
    extra."""
    cap = shape.size() + extra
    return ((SSYT, 0, lambda: tb.content_counts(shape, SSYT)),
            (RPP, 0, lambda: tb.content_counts(shape, RPP)),
            (SVT, extra,
             lambda: tb.content_counts(shape, SVT, max_total_size=cap)),
            (SVT, extra,
             lambda: tb.signed_svt_counts(shape, max_total_size=cap)))


def within(counts, m):
    """The counts of contents with at most m parts: those of the stream
    with entries at most m."""
    return {t: c for t, c in counts.items() if len(t) <= m}


def engine_counts(shape, m):
    return tuple(within(call(), m) for _, _, call in engine_requests(shape))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.integers(min_value=1, max_value=3))
def test_chain_sweeps_match_stream_cold_and_warm(shape, m):
    tb._chain_cache.clear()
    cold = engine_counts(shape, m)
    # warm: the tables were built by the straight shape with the same outer
    tb._chain_cache.clear()
    engine_counts(SkewShape(shape.outer, EMPTY), m)
    warm = engine_counts(shape, m)
    assert cold == warm == stream_counts(shape, m)
    # the walk's order: descending lex within each size, so a stable sort
    # by size alone gives graded lex order
    for counts in cold:
        assert sorted(counts, key=sum) == sorted(counts, key=graded_lex_key)


def meet(a, b):
    """Componentwise minimum of two partitions."""
    parts = (min(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0))
    return tuple(x for x in parts if x)


# what built the tables of the outer shape before the request
TABLE_SITUATIONS = ("cold", "warm", "smaller extra", "other root")


@pytest.mark.parametrize("situation", TABLE_SITUATIONS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([s for s in SMALL_SHAPES if s.size()]),
       st.integers(min_value=1, max_value=3), st.data())
def test_backward_tables_match_stream(situation, shape, m, data):
    # the request has extra degree 2 for plain and signed svt and 0 for
    # ssyt and rpp; "warm" builds every table first from an inner shape
    # inside the request's at extra 2 or 3, "smaller extra" at 0 or 1 (the
    # svt table rebuilds), "other root" from an inner shape outside the
    # request's (every table rebuilds at the meet of the two inner shapes)
    outer, inner = shape.outer, shape.inner
    if situation == "other root":
        roots = [p for p in subpartitions(outer)
                 if p != outer and not contains(inner, p)]
    else:
        roots = list(subpartitions(inner))
    assume(roots)
    root = inner if situation == "cold" else data.draw(st.sampled_from(roots))
    extra = data.draw(st.integers(*{"cold": (2, 2), "warm": (2, 3),
                                    "smaller extra": (0, 1),
                                    "other root": (0, 3)}[situation]))
    tb._chain_cache.clear()
    first = {}  # table kind -> extra degree of the first request
    if situation != "cold":
        for kind, want, call in engine_requests(SkewShape(outer, root),
                                                extra):
            call()
            first[kind] = want
    for (kind, want, call), expected in zip(engine_requests(shape),
                                            stream_counts(shape, m)):
        assert within(call(), m) == expected, kind
        tables = tb._chain_cache[outer]
        code = tables.code(inner)
        got_root, fits, table = tables.back[kind]
        # the table covers the request, rooted at the meet of both inner
        # shapes and at the larger extra degree
        assert contains(inner, got_root) and fits >= want
        assert got_root == meet(root, inner)
        assert fits == max(first.get(kind, want), want)
        # the table holds no content past its extra degree
        assert max(map(sum, table[code])) <= shape.size() + fits
        # one table per kind: plain and signed svt share theirs
        assert set(tables.back) <= set(tb.KINDS)
    # contents of every length: as from tables built by this request
    full = [call() for _, _, call in engine_requests(shape)]
    tb._chain_cache.clear()
    assert full == [call() for _, _, call in engine_requests(shape)]


@pytest.mark.parametrize("kind", [SVT])
@pytest.mark.parametrize("n", [4, 5])
def test_budget_cut_tables_match_larger_budgets(kind, n):
    # a table built cold at extra e holds, state by state, exactly the
    # entries of the table at e + 2 of content size at most |outer/i| + e,
    # in the same order: the budget cut drops nothing on its boundary
    outer = staircase(n)
    tables = tb._ChainTables(outer)
    for extra in range(3):
        cut = tables._backward(kind, EMPTY, extra)
        wide = tables._backward(kind, EMPTY, extra + 2)
        assert cut.keys() == wide.keys()
        for i, counts in cut.items():
            cells = sum(outer) - sum(tables._parts(i))
            assert list(counts.items()) == [
                (t, c) for t, c in wide[i].items()
                if sum(t) <= cells + extra], i
            # the content fixes the sign: every entry is nonzero, with
            # sign (-1)^(|t| - |outer/i|)
            assert all(c and (c < 0) == (sum(t) - cells) % 2
                       for t, c in counts.items()), i


@pytest.mark.parametrize("kind", tb.KINDS)
def test_backward_steps_stay_within_the_next_part_bounds(kind, monkeypatch):
    # the walk tries no part past the room left to it: every step reads
    # a positive part, with a budget that still admits the root; the
    # stream oracles pin what it may not skip
    steps = []
    step = tb._ChainTables._step

    def record(self, kind, live, v, rows, room):
        steps.append((v, room))
        return step(self, kind, live, v, rows, room)

    monkeypatch.setattr(tb._ChainTables, "_step", record)
    outer = staircase(5)
    for root in (EMPTY, (2, 1), (3, 3, 1)):
        for extra in ((0, 1, 3) if kind == SVT else (0,)):
            steps.clear()
            table = tb._ChainTables(outer)._backward(kind, root, extra)
            assert steps and table
            for v, room in steps:
                assert 1 <= v and room >= sum(root), (root, extra)


def test_cold_sweeps_leave_no_cyclic_garbage():
    # no walk is a reference cycle, so a sweep's dicts die with it
    shape = SkewShape((4, 3, 2, 1), (1,))

    def rebuild():
        # the straight shape lies outside the table's root, and its extra
        # degree is larger, so its sweep replaces the table
        tb.signed_svt_counts(shape, max_total_size=10)
        tb.signed_svt_counts(SkewShape(shape.outer, EMPTY), max_total_size=12)
        assert tb._chain_cache[shape.outer].back[SVT][:2] == (EMPTY, 2)

    sweeps = (lambda: tb.content_counts(shape, RPP),
              lambda: tb.signed_svt_counts(shape, max_total_size=11),
              lambda: tb.content_counts(shape, SSYT),
              lambda: tb.content_counts(shape, SVT, max_total_size=11),
              rebuild)
    for sweep in sweeps:
        tb._chain_cache.clear()
        gc.collect()
        gc.disable()
        try:
            sweep()
            assert gc.collect() == 0
        finally:
            gc.enable()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.integers(min_value=1, max_value=3))
def test_single_counts_match_stream(shape, m):
    # count_fillings alone, from a cold cache, with |T| capped for every
    # kind: at |shape| + 2, and below the cell count, where none fits
    tb._chain_cache.clear()
    cap = shape.size() + 2
    low = shape.size() - 1
    expected = dict(zip((SSYT, RPP, SVT), stream_counts(shape, m)))
    contents = [t for s in range(cap + 2) for t in partitions_of(s)
                if len(t) <= m]
    for kind, counts in expected.items():
        for t in contents:
            want = counts.get(t, 0) if sum(t) <= cap else 0
            assert tb.count_fillings(shape, kind, t,
                                     max_total_size=cap) == want, (kind, t)
            assert tb.count_fillings(shape, kind, t,
                                     max_total_size=low) == 0, (kind, t)
        assert tb.content_counts(shape, kind, max_total_size=low) == \
            partition_content_counter(shape, kind, m, low) == {}


def test_svt_requests_below_the_cell_count_build_no_table():
    # every svt content is at least the cell count, so a budget below it
    # reads nothing: no table is built or cached, and the next request
    # builds at its own extra degree
    shape = SkewShape((4, 3, 2, 1), EMPTY)
    low = (lambda: tb.signed_svt_counts(shape, max_total_size=5) == {},
           lambda: tb.count_fillings(shape, SVT, (1,)) == 0,
           lambda: gr.big_G(shape, TruncationProfile(9)).coeffs == {})
    for request in low:
        tb._chain_cache.clear()
        gr._big_G_cached.cache_clear()
        assert request()
        assert SVT not in tb._chain_cache[shape.outer].back
        tb.signed_svt_counts(SkewShape(shape.outer, (1,)), max_total_size=11)
        assert tb._chain_cache[shape.outer].back[SVT][:2] == ((1,), 2)
        # a covering table stays as it is
        assert request()
        assert tb._chain_cache[shape.outer].back[SVT][:2] == ((1,), 2)


def test_single_content_reads_skip_the_graded_cut(monkeypatch):
    # count_fillings reads its one content straight from the table entry;
    # only the whole-dict readers copy it, cut by size
    shape = SkewShape(staircase(5), (1,))
    tb._chain_cache.clear()
    whole = {kind: tb.content_counts(shape, kind, max_total_size=16)
             for kind in (SSYT, RPP, SVT)}

    def no_cut(*args):
        raise AssertionError("a single-content read cut the whole entry")

    monkeypatch.setattr(tb, "_graded", no_cut)
    for kind, counts in whole.items():
        assert counts
        for t, c in counts.items():
            assert tb.count_fillings(shape, kind, t, max_total_size=16) == c


def test_svt_content_counts_need_a_cap():
    # the plain svt table grows with the content size, so none is implied
    with pytest.raises(ValueError):
        tb.content_counts(SkewShape((2, 1), EMPTY), SVT)


def test_empty_shape_counts():
    empty = SkewShape((2, 1), (2, 1))
    assert tb.content_counts(empty, SSYT) == {EMPTY: 1}
    assert tb.count_fillings(empty, RPP, EMPTY) == 1
    assert tb.count_fillings(empty, RPP, (1,)) == 0
    assert tb.count_lattice_fillings(empty, EMPTY) == 1
    assert tb.count_lattice_fillings(empty, (1,)) == 0


def test_ssyt_rpp_svt_inclusions():
    for lam in ((2, 1), (2, 2), (3, 1)):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            m = 3
            ssyt = list(fillings.enumerate_fillings(shape, SSYT, m))
            rpp = list(fillings.enumerate_fillings(shape, RPP, m))
            svt = list(fillings.enumerate_fillings(shape, SVT, m,
                                             max_total_size=shape.size()))
            assert len(ssyt) <= len(rpp)
            assert len(ssyt) == len(svt)
            for t in ssyt:
                assert fillings.is_rpp(t) and fillings.is_svt(t)


def test_count_lattice_fillings_examples():
    assert tb.count_lattice_fillings(star_join((1,), (1,)), (2,)) == 1
    assert tb.count_lattice_fillings(star_join((1,), (1,)), (2, 1)) == 1
    assert tb.count_lattice_fillings(SkewShape((1,), EMPTY), (1,)) == 1


def test_deep_lattice_searches_are_refused_before_they_start():
    # the search nests a call per cell and per letter: cells plus letters
    # past half the recursion limit are refused, and a search at that
    # bound still runs (lattice-rules n=6 needs at most 27 cells + letters)
    depth = sys.getrecursionlimit() // 2
    half = depth // 2
    assert tb.count_lattice_fillings(SkewShape((half,), EMPTY), (half,)) == 1
    with pytest.raises(ValueError, match=f"depth bound {depth}"):
        tb.count_lattice_fillings(SkewShape((half + 1,), EMPTY), (half + 1,))
    with pytest.raises(ValueError, match=f"depth bound {depth}"):
        gr.alpha(SkewShape((depth,), EMPTY), (depth,))


def test_iter_lattice_fillings_consistent_with_count():
    for shape, content in (
            (star_join((2, 1), (2,)), staircase(3)),
            (star_join((1, 1), (1,)), staircase(2)),
            (SkewShape((3, 2, 1), (1,)), (3, 2, 1)),
            (SkewShape((3, 2, 1), (2,)), (2, 2, 1))):
        maps = list(tb.iter_lattice_fillings(shape, content))
        assert len(maps) == tb.count_lattice_fillings(shape, content)
        for entries in maps:
            t = SetFilling(shape, entries)
            assert fillings.is_svt(t)
            word = fillings.reverse_reading_word(t)
            assert fillings.is_lattice(word)
            counts = Counter(word)
            assert tuple(counts[i] for i in range(1, max(counts) + 1)) == content


def lattice_stream_counter(shape, total):
    """Oracle for the lattice counts: the filtered svt stream."""
    return Counter(
        fillings.content_of(t, SVT)
        for t in fillings.enumerate_fillings(shape, SVT, max(total, 1),
                                       max_total_size=total)
        if t.total_size() == total and fillings.is_lattice(fillings.reverse_reading_word(t)))


# smallest first, which is where hypothesis draws most often
LATTICE_SHAPES = sorted((s for s in SMALL_SHAPES if s.size() <= 5),
                        key=lambda s: (s.size(), s.outer, s.inner))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(LATTICE_SHAPES), st.integers(min_value=0, max_value=2))
def test_lattice_counts_match_stream(shape, extra):
    # cold: neither the sweep nor a single count comes from the cache;
    # alpha reads the sweep over every content of the size, the count
    # the search pruned by its one content
    tb._lattice_table.cache_clear()
    total = shape.size() + extra
    expected = lattice_stream_counter(shape, total)
    for c in partitions_of(total):
        assert gr.alpha(shape, c).value == expected[c], c
        assert tb.count_lattice_fillings(shape, c) == expected[c], c


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(LATTICE_SHAPES), st.integers(min_value=0, max_value=2))
def test_iter_lattice_fillings_match_stream(shape, extra):
    # the maps handed out are exactly the lattice svt of the filtered
    # stream, content by content, and each one validates as a SetFilling
    total = shape.size() + extra
    expected = {}
    for t in fillings.enumerate_fillings(shape, SVT, max(total, 1),
                                   max_total_size=total):
        if t.total_size() == total and fillings.is_lattice(fillings.reverse_reading_word(t)):
            expected.setdefault(fillings.content_of(t, SVT), set()).add(
                frozenset(t.entries.items()))
    for c in partitions_of(total):
        got = list(tb.iter_lattice_fillings(shape, c))
        assert len(got) == len(expected.get(c, ()))
        assert {frozenset(m.items()) for m in got} == expected.get(c, set()), c
        for entries in got:
            t = SetFilling(shape, entries)
            assert fillings.is_svt(t)
            assert t.total_size() == total


def lattice_support_bound(shape):
    """B(shape): the sum over cells (r, c) of r, less the number of cells
    of the shape above (r, c) in column c."""
    cells = set(shape.cells())
    return sum(r - sum((q, c) in cells for q in range(1, r)) for r, c in cells)


def test_lattice_fillings_stop_at_the_support_bound():
    # empirical: no lattice svt of a skew shape inside |lam| <= 8 holds
    # more than B(shape) letters, and B is attained by 351 of the 862
    shapes = [SkewShape(lam, mu) for d in range(9) for lam in partitions_of(d)
              for mu in subpartitions(lam)]
    assert len(shapes) == 862
    attained = 0
    for shape in shapes:
        b = lattice_support_bound(shape)
        assert not tb._lattice_table(shape, b + 1, None), shape
        assert not tb._lattice_table(shape, b + 2, None), shape
        attained += bool(tb._lattice_table(shape, b, None))
    assert attained == 351


def test_lattice_block_lemmas_exhaustive():
    # staircase-content fillings of the joined shapes: the upper block is
    # row-constant and the lower block never repeats a value
    for n in range(1, 5):
        rho = staircase(n)
        for k in range(1, n + 1):
            for mu in ((k,), (1,) * k):
                for nu in subpartitions(rho):
                    shape = star_join(nu, mu)
                    for t in tb.iter_lattice_fillings(shape, rho):
                        for (r, c), vals in t.items():
                            if r <= len(nu):
                                assert vals == (r,)
                        lower = [v for (r, _), vals in t.items()
                                 if r > len(nu) for v in vals]
                        assert len(lower) == len(set(lower))


def test_lattice_upper_block_row_constant_for_general_joins():
    # the row-constancy of the upper block needs no strip assumption on
    # the lower partition
    rho = staircase(3)
    for nu in subpartitions(rho):
        for mu in subpartitions(rho):
            shape = star_join(nu, mu)
            for t in tb.iter_lattice_fillings(shape, rho):
                for (r, c), vals in t.items():
                    if r <= len(nu):
                        assert vals == (r,)


def principal_specialization(coeffs, m):
    """Evaluate a monomial-basis table at x_1 = ... = x_m = 1."""
    total = 0
    for lam, c in coeffs.items():
        if len(lam) > m:
            continue
        arrangements = len(set(itertools.permutations(lam + (0,) * (m - len(lam)))))
        total += c * arrangements
    return total


def test_enumerate_count_matches_principal_specialization():
    from staircase_groth import grothendieck as gr
    from staircase_groth.symfunc import TruncationProfile
    shapes = [SkewShape(lam, mu)
              for d in range(0, 6)
              for lam in partitions_of(d)
              for mu in subpartitions(lam)]
    shapes += [SkewShape((3, 2, 1), EMPTY), SkewShape((4, 2), EMPTY),
               SkewShape((4, 3), (1,)), SkewShape((3, 2, 1), (1, 1))]
    for shape in shapes:
        trunc = TruncationProfile.for_degree(max(shape.size(), 1))
        poly = gr.schur(shape, trunc)
        for m in range(1, 5):
            count = sum(1 for _ in fillings.enumerate_fillings(shape, SSYT, m))
            assert count == principal_specialization(poly.coeffs, m), (shape, m)


@settings(derandomize=True, max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=4), max_size=12))
def test_is_lattice_random_words_match_oracle(letters):
    word = tuple(letters)
    assert fillings.is_lattice(word) == instance_order_lattice(word)
