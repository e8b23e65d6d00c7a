import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from staircase_groth import tableaux as tb
from staircase_groth.shapes import (
    EMPTY,
    SkewShape,
    graded_lex_key,
    partitions_of,
    staircase,
    star_join,
    subpartitions,
)
from staircase_groth.tableaux import RPP, SSYT, SVT, SetFilling


def test_is_ssyt_display():
    t = SetFilling(SkewShape((5, 4, 3, 2, 1), (3, 1)), {
        (1, 4): (2,), (1, 5): (4,),
        (2, 2): (1,), (2, 3): (1,), (2, 4): (4,),
        (3, 1): (1,), (3, 2): (2,), (3, 3): (2,),
        (4, 1): (3,), (4, 2): (4,),
        (5, 1): (6,),
    })
    assert tb.is_ssyt(t)
    assert tb.content_of(t, SSYT) == (3, 3, 1, 3, 0, 1)


def test_is_ssyt_trivial():
    one = SetFilling(SkewShape((1,), EMPTY), {(1, 1): (1,)})
    assert tb.is_ssyt(one)
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (1,)})
    assert not tb.is_ssyt(col)
    assert tb.is_rpp(col)


def test_is_rpp_display():
    t = SetFilling(SkewShape((5, 4, 3), (1, 1)), {
        (1, 2): (1,), (1, 3): (2,), (1, 4): (2,), (1, 5): (4,),
        (2, 2): (1,), (2, 3): (2,), (2, 4): (5,),
        (3, 1): (1,), (3, 2): (2,), (3, 3): (2,),
    })
    assert tb.is_rpp(t)
    assert tb.content_of(t, RPP) == (2, 3, 0, 1, 1)


def test_is_rpp_row_decrease_fails():
    t = SetFilling(SkewShape((2,), EMPTY), {(1, 1): (2,), (1, 2): (1,)})
    assert not tb.is_rpp(t)


def svt_display():
    return SetFilling(SkewShape((5, 4, 3), (2, 1)), {
        (1, 3): (1, 2), (1, 4): (2, 3, 4), (1, 5): (7,),
        (2, 2): (3,), (2, 3): (3, 5), (2, 4): (5,),
        (3, 1): (2,), (3, 2): (4, 5, 6), (3, 3): (6,),
    })


def test_is_svt_display():
    t = svt_display()
    assert tb.is_svt(t)
    assert t.total_size() == 15
    assert sum(tb.content_of(t, SVT)) == 15


def test_is_svt_small_cases():
    row = SetFilling(SkewShape((2,), EMPTY), {(1, 1): (1,), (1, 2): (1,)})
    assert tb.is_svt(row)
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (1,)})
    assert not tb.is_svt(col)
    overlap = SetFilling(SkewShape((2,), EMPTY), {(1, 1): (1, 2), (1, 2): (2,)})
    assert tb.is_svt(overlap)


def test_content_kind_mismatch():
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (1,)})
    with pytest.raises(ValueError):
        tb.content_of(col, SSYT)
    assert tb.content_of(col, RPP) == (1,)


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
    assert tb.reverse_reading_word(svt_display()) == \
        (7, 4, 3, 2, 5, 2, 1, 5, 3, 6, 3, 6, 5, 4, 2)


def test_reverse_reading_word_small():
    cell = SetFilling(SkewShape((1,), EMPTY), {(1, 1): (1, 3)})
    assert tb.reverse_reading_word(cell) == (3, 1)
    col = SetFilling(SkewShape((1, 1), EMPTY), {(1, 1): (1,), (2, 1): (2,)})
    assert tb.reverse_reading_word(col) == (1, 2)
    empty = SetFilling(SkewShape((2, 1), (2, 1)), {})
    assert tb.reverse_reading_word(empty) == ()


def test_is_lattice_examples():
    assert tb.is_lattice((1, 1, 2, 1, 3, 2, 2))
    assert not tb.is_lattice((1, 2, 1, 2, 2, 1))
    assert tb.is_lattice(())


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
            assert tb.is_lattice(word) == instance_order_lattice(word), word


def test_enumerate_counts():
    assert len(list(tb.enumerate_fillings(SkewShape((2, 1), EMPTY), SSYT, 2))) == 2
    assert len(list(tb.enumerate_fillings(SkewShape((2, 2), (1,)), RPP, 2))) == 5
    svt = list(tb.enumerate_fillings(SkewShape((1,), EMPTY), SVT, 2))
    assert [t.entries[(1, 1)] for t in svt] == [(1,), (1, 2), (2,)]


def test_enumerate_rejects_zero_alphabet():
    with pytest.raises(ValueError):
        list(tb.enumerate_fillings(SkewShape((1,), EMPTY), SSYT, 0))
    with pytest.raises(ValueError):
        list(tb.enumerate_fillings(SkewShape((1,), EMPTY), "tableau", 2))


def test_enumerate_is_deterministic_and_duplicate_free():
    shape = SkewShape((2, 2), (1,))
    for kind, cap in ((SSYT, None), (RPP, None), (SVT, 5)):
        a = list(tb.enumerate_fillings(shape, kind, 3, max_total_size=cap))
        b = list(tb.enumerate_fillings(shape, kind, 3, max_total_size=cap))
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
    check = {SSYT: tb.is_ssyt, RPP: tb.is_rpp, SVT: tb.is_svt}[kind]
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
                for t in tb.enumerate_fillings(shape, kind, max_entry,
                                               max_total_size=cap)}
        slow = {tuple(sorted(t.entries.items()))
                for t in brute_fillings(shape, kind, max_entry, cap)}
        assert fast == slow


def partition_content_counter(shape, kind, max_entry, cap=None):
    counter = Counter()
    for t in tb.enumerate_fillings(shape, kind, max_entry, max_total_size=cap):
        c = tb.content_of(t, kind)
        if all(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            counter[c] += 1
    return dict(counter)


@pytest.mark.parametrize("kind", [SSYT, RPP])
def test_content_counts_match_stream(kind):
    for shape in (SkewShape((2, 1), EMPTY), SkewShape((2, 2), (1,)),
                  SkewShape((3, 1), (1,)), SkewShape((2, 2, 1), (1,))):
        nv = shape.size()
        expected = partition_content_counter(shape, kind, nv)
        got = tb.content_counts(shape, kind, num_vars=nv)
        assert got == expected


def test_svt_content_counts_match_stream():
    for shape in (SkewShape((2, 1), EMPTY), SkewShape((2, 2), (1,))):
        cap = shape.size() + 2
        expected = partition_content_counter(shape, SVT, cap, cap)
        got = tb.content_counts(shape, SVT, num_vars=cap, max_total_size=cap)
        assert got == expected


def signed_content_counter(shape, max_entry, cap):
    signed = Counter()
    for t in tb.enumerate_fillings(shape, SVT, max_entry, max_total_size=cap):
        c = tb.content_of(t, SVT)
        if all(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            signed[c] += -1 if (t.total_size() - shape.size()) % 2 else 1
    return {k: v for k, v in signed.items() if v}


def test_signed_svt_counts_match_stream():
    for shape in (SkewShape((2, 1), EMPTY), SkewShape((2, 2), (1,)),
                  SkewShape((3, 2), EMPTY), SkewShape((2, 2, 1), (1,))):
        cap = shape.size() + 3
        expected = signed_content_counter(shape, cap, cap)
        got = tb.signed_svt_counts(shape, num_vars=cap, max_total_size=cap)
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


def engine_counts(shape, m):
    cap = shape.size() + 2
    return (tb.content_counts(shape, SSYT, num_vars=m),
            tb.content_counts(shape, RPP, num_vars=m),
            tb.content_counts(shape, SVT, num_vars=m, max_total_size=cap),
            tb.signed_svt_counts(shape, num_vars=m, max_total_size=cap))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.integers(min_value=1, max_value=3))
def test_chain_sweeps_match_stream_cold_and_warm(shape, m):
    tb._chain_cache.clear()
    cold = engine_counts(shape, m)
    # warm: the rows were built by the straight shape with the same outer
    tb._chain_cache.clear()
    engine_counts(SkewShape(shape.outer, EMPTY), m)
    warm = engine_counts(shape, m)
    assert cold == warm == stream_counts(shape, m)
    for counts in cold:
        assert list(counts) == sorted(counts, key=graded_lex_key)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.integers(min_value=1, max_value=3))
def test_single_counts_match_stream(shape, m):
    # count_fillings alone, from a cold cache: one DP, no sweep around it
    tb._chain_cache.clear()
    cap = shape.size() + 2
    expected = dict(zip((SSYT, RPP, SVT), stream_counts(shape, m)))
    contents = [t for s in range(cap + 2)
                for t in partitions_of(s, max_length=m)]
    for kind, counts in expected.items():
        limit = cap if kind == SVT else None
        for t in contents:
            want = counts.get(t, 0) if sum(t) <= cap else 0
            assert tb.count_fillings(shape, kind, t,
                                     max_total_size=limit) == want, (kind, t)


def test_empty_shape_counts():
    empty = SkewShape((2, 1), (2, 1))
    assert tb.content_counts(empty, SSYT, num_vars=3) == {EMPTY: 1}
    assert tb.count_fillings(empty, RPP, EMPTY) == 1
    assert tb.count_fillings(empty, RPP, (1,)) == 0
    assert tb.count_lattice_fillings(empty, EMPTY) == 1
    assert tb.count_lattice_fillings(empty, (1,)) == 0


def test_ssyt_rpp_svt_inclusions():
    for lam in ((2, 1), (2, 2), (3, 1)):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            m = 3
            ssyt = list(tb.enumerate_fillings(shape, SSYT, m))
            rpp = list(tb.enumerate_fillings(shape, RPP, m))
            svt = list(tb.enumerate_fillings(shape, SVT, m,
                                             max_total_size=shape.size()))
            assert len(ssyt) <= len(rpp)
            assert len(ssyt) == len(svt)
            for t in ssyt:
                assert tb.is_rpp(t) and tb.is_svt(t)


def test_count_lattice_fillings_examples():
    assert tb.count_lattice_fillings(star_join((1,), (1,)), (2,)) == 1
    assert tb.count_lattice_fillings(star_join((1,), (1,)), (2, 1)) == 1
    assert tb.count_lattice_fillings(SkewShape((1,), EMPTY), (1,)) == 1


def test_iter_lattice_fillings_consistent_with_count():
    for shape, content in (
            (star_join((2, 1), (2,)), staircase(3)),
            (star_join((1, 1), (1,)), staircase(2)),
            (SkewShape((3, 2, 1), (1,)), (3, 2, 1)),
            (SkewShape((3, 2, 1), (2,)), (2, 2, 1))):
        fillings = list(tb.iter_lattice_fillings(shape, content))
        assert len(fillings) == tb.count_lattice_fillings(shape, content)
        for t in fillings:
            assert tb.is_svt(t)
            word = tb.reverse_reading_word(t)
            assert tb.is_lattice(word)
            counts = Counter(word)
            assert tuple(counts[i] for i in range(1, max(counts) + 1)) == content


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
                        for (r, c), vals in t.entries.items():
                            if r <= len(nu):
                                assert vals == (r,)
                        lower = [v for (r, _), vals in t.entries.items()
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
                for (r, c), vals in t.entries.items():
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
            count = sum(1 for _ in tb.enumerate_fillings(shape, SSYT, m))
            assert count == principal_specialization(poly.coeffs, m), (shape, m)


@settings(derandomize=True, max_examples=100)
@given(st.lists(st.integers(min_value=1, max_value=4), max_size=12))
def test_is_lattice_random_words_match_oracle(letters):
    word = tuple(letters)
    assert tb.is_lattice(word) == instance_order_lattice(word)
