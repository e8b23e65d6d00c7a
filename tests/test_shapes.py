import itertools

import pytest
from hypothesis import given, settings, strategies as st

from staircase_groth.shapes import (
    EMPTY,
    SkewShape,
    classify_strip,
    conjugate,
    contains,
    format_partition,
    format_skew,
    parse_partition,
    parse_skew,
    partition,
    partitions_of,
    rook_strip_inners,
    staircase,
    star_join,
    subpartitions,
)

partitions_st = st.lists(
    st.integers(min_value=1, max_value=8), max_size=8
).map(lambda xs: tuple(sorted(xs, reverse=True)))


def all_partitions_up_to(n):
    for d in range(n + 1):
        yield from partitions_of(d)


def test_partitions_of_lists_descending_lex_order():
    # verify's case order, and so every report digest, is this order
    counts = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176)
    for n, count in enumerate(counts):
        parts = list(partitions_of(n))
        assert len(set(parts)) == count
        assert all(sum(lam) == n and partition(lam) == lam for lam in parts)
        assert parts == sorted(parts, reverse=True)


def test_partition_canonicalization():
    assert partition([3, 2, 1, 0, 0]) == (3, 2, 1)
    assert partition([]) == EMPTY
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])
    with pytest.raises(ValueError):
        partition([2, 0, 1])
    # a part is read with operator.index: nothing is truncated or parsed
    for parts in [(2.9, 1.5), (2.0, 1), "21", ("2", "1")]:
        with pytest.raises(TypeError):
            partition(parts)

    class Three:
        def __index__(self):
            return 3

    assert partition([Three(), 1]) == (3, 1)


def test_conjugate_examples():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((4, 3, 2, 1)) == (4, 3, 2, 1)
    assert conjugate(EMPTY) == EMPTY


def test_conjugate_involution_exhaustive():
    for lam in all_partitions_up_to(12):
        assert conjugate(conjugate(lam)) == lam


@settings(derandomize=True, max_examples=200)
@given(partitions_st)
def test_conjugate_involution_random(lam):
    assert conjugate(conjugate(lam)) == lam


def test_staircase():
    assert staircase(3) == (3, 2, 1)
    assert staircase(0) == EMPTY
    assert staircase(1) == (1,)
    with pytest.raises(ValueError):
        staircase(-1)


def test_contains():
    assert contains((3, 2, 1), (2, 1))
    assert not contains((3, 2, 1), (1, 1, 1, 1))
    assert contains((2, 2), (2, 1))
    assert contains((2,), EMPTY)
    assert not contains(EMPTY, (1,))


def test_contains_conjugate_duality():
    small = list(all_partitions_up_to(6))
    for lam, mu in itertools.product(small, small):
        assert contains(lam, mu) == contains(conjugate(lam), conjugate(mu))


def brute_subpartitions(p):
    """Oracle: filter all exponent vectors below p componentwise."""
    found = set()
    for combo in itertools.product(*[range(x + 1) for x in p]):
        trimmed = tuple(x for x in combo if x)
        if len(trimmed) == sum(1 for x in combo if x) and all(
                combo[i] >= combo[i + 1] for i in range(len(combo) - 1)):
            found.add(trimmed)
    if not p:
        found.add(EMPTY)
    return found


def test_subpartitions_examples():
    assert subpartitions(EMPTY) == (EMPTY,)
    assert set(subpartitions((1, 1))) == {EMPTY, (1,), (1, 1)}
    assert len(subpartitions((2, 1))) == 5


def test_subpartitions_against_brute_force():
    for lam in all_partitions_up_to(8):
        subs = subpartitions(lam)
        assert len(set(subs)) == len(subs)
        assert set(subs) == brute_subpartitions(lam)


def test_subpartitions_graded_lex_order():
    assert subpartitions((2, 1)) == (EMPTY, (1,), (2,), (1, 1), (2, 1))


def test_staircase_subpartition_counts_are_catalan():
    assert [len(subpartitions(staircase(n))) for n in range(1, 5)] == \
        [2, 5, 14, 42]


def test_star_join_examples():
    sj = star_join((2, 1), (4,))
    assert (sj.outer, sj.inner) == ((6, 5, 4), (4, 4))
    nu = (3, 1)
    assert star_join(nu, EMPTY) == SkewShape(nu, EMPTY)
    sj = star_join((1,), (1,))
    assert (sj.outer, sj.inner) == ((2, 1), (1,))


def test_star_join_disjoint_blocks():
    for nu in all_partitions_up_to(4):
        for mu in all_partitions_up_to(4):
            sj = star_join(nu, mu)
            assert sj.size() == sum(nu) + sum(mu)
            upper = {c for c in sj.cells() if c[0] <= len(nu)}
            lower = set(sj.cells()) - upper
            assert len(upper) == sum(nu) and len(lower) == sum(mu)
            assert not {r for r, _ in upper} & {r for r, _ in lower}
            assert not {c for _, c in upper} & {c for _, c in lower}


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))
    sh = SkewShape((2, 2), (1,))
    assert sh.size() == 3
    assert sh.cells() == ((1, 2), (2, 1), (2, 2))
    assert SkewShape((2, 1), (2, 1)).size() == 0
    with pytest.raises(TypeError):
        SkewShape((2.9, 1.5), ())
    with pytest.raises(TypeError):
        SkewShape((2, 1), (1.0,))


def test_classify_strip():
    single = classify_strip(SkewShape((2, 2), (2, 1)))
    assert single == (True, True, True)
    for k in range(1, 5):
        for j in range(k + 1):
            flags = classify_strip(SkewShape((k,), (j,)))
            assert flags.rook == (j in (k, k - 1))
    assert classify_strip(SkewShape((2, 2), (1, 1))) == (False, True, False)


def test_strip_conjugate_duality():
    for lam in all_partitions_up_to(6):
        for nu in subpartitions(lam):
            sh = SkewShape(lam, nu)
            shc = SkewShape(conjugate(lam), conjugate(nu))
            assert classify_strip(sh).horizontal == classify_strip(shc).vertical


def test_rook_strip_inners_are_the_corner_subsets():
    # the rook filter over every sigma inside mu is the oracle
    for mu in all_partitions_up_to(10):
        want = [(sigma, sum(mu) - sum(sigma)) for sigma in subpartitions(mu)
                if classify_strip(SkewShape(mu, sigma)).rook]
        assert list(rook_strip_inners(mu)) == want, mu
    assert rook_strip_inners(EMPTY) == ((EMPTY, 0),)
    assert rook_strip_inners((2, 2, 1)) == (
        ((2, 1), 2), ((2, 2), 1), ((2, 1, 1), 1), ((2, 2, 1), 0))


def test_text_encoding():
    assert parse_partition("4,3,2,1") == (4, 3, 2, 1)
    assert parse_partition("") == EMPTY
    assert format_partition((3, 1)) == "3,1"
    sh = parse_skew("3,2,1/1")
    assert (sh.outer, sh.inner) == ((3, 2, 1), (1,))
    assert format_skew(sh) == "3,2,1/1"
    assert parse_skew("2,1") == SkewShape((2, 1), EMPTY)
    assert format_skew(SkewShape((2, 1), EMPTY)) == "2,1"
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("1,2")
