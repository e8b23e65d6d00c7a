import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from staircase_groth.grothendieck import _h_expansion
from staircase_groth.shapes import EMPTY, partitions_of
from staircase_groth.symfunc import (
    BasisExpansion,
    SymFunc,
    TruncationProfile,
    _inverse_kostka_columns,
    basis_element,
    hall_inner,
    m_to_e,
    m_to_h,
    m_to_schur,
    multiply,
    schur_to_m,
    split_alphabets,
)

P6 = TruncationProfile(6, 6)
P8 = TruncationProfile(8, 8)


def m(lam, trunc=P6):
    return basis_element("m", lam, trunc)


def all_partitions_up_to(n):
    for d in range(n + 1):
        yield from partitions_of(d)


# keys of the randomized multi-term f below: every partition of size <= 6
_KEYS_6 = list(all_partitions_up_to(6))


def dominates(lam, mu):
    """lam >= mu in dominance order (same size)."""
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def test_profile_validation():
    with pytest.raises(ValueError):
        TruncationProfile(3, 2)
    with pytest.raises(ValueError):
        TruncationProfile(-1, 2)
    assert TruncationProfile.for_degree(0) == TruncationProfile(0, 1)


def test_add():
    one = m((1,))
    assert (one + one).coeffs == {(1,): 2}
    f = m((2,)) + m((1, 1)).scale(3)
    assert (f + SymFunc.zero(P6)).coeffs == f.coeffs
    assert (m((2,)) - m((2,))).is_zero()
    with pytest.raises(ValueError):
        m((1,)) + m((1,), TruncationProfile(5, 5))


def test_multiply_examples():
    assert (m((1,)) * m((1,))).coeffs == {(2,): 1, (1, 1): 2}
    f = m((2, 1)) + m((1,)).scale(-2)
    assert (f * SymFunc.one(P6)).coeffs == f.coeffs
    e1 = basis_element("e", (1,), P6)
    e2 = basis_element("e", (2,), P6)
    assert (e1 * e1 - e2.scale(2)).coeffs == {(2,): 1}


def test_multiply_truncates():
    p = TruncationProfile(2, 2)
    f = basis_element("m", (2,), p)
    assert multiply(f, f).is_zero()


def test_multiply_commutative_associative_seeded():
    rng = random.Random(7)
    elems = []
    for _ in range(6):
        d = rng.randint(0, 3)
        lam = rng.choice(list(partitions_of(d)))
        elems.append(basis_element(rng.choice("meh"), lam, P6))
    for f in elems:
        for g in elems:
            assert (f * g).coeffs == (g * f).coeffs
    for f, g, h in zip(elems, elems[1:], elems[2:]):
        assert ((f * g) * h).coeffs == (f * (g * h)).coeffs


def test_basis_element_examples():
    assert basis_element("e", (2,), P6).coeffs == {(1, 1): 1}
    assert basis_element("h", (2,), P6).coeffs == {(2,): 1, (1, 1): 1}
    assert basis_element("e", EMPTY, P6).coeffs == {EMPTY: 1}
    assert basis_element("h", EMPTY, P6).coeffs == {EMPTY: 1}
    with pytest.raises(ValueError):
        basis_element("m", (7,), P6)
    with pytest.raises(ValueError):
        basis_element("p", (1,), P6)


def test_schur_to_m_examples():
    for k in range(1, 5):
        assert schur_to_m((1,) * k, P6).coeffs == {(1,) * k: 1}
    assert schur_to_m((2, 1), P6).coeffs == {(2, 1): 1, (1, 1, 1): 2}
    for n in range(1, 5):
        assert schur_to_m((n,), P6).coeffs == \
            {mu: 1 for mu in partitions_of(n)}
    with pytest.raises(ValueError):
        schur_to_m((4, 3), P6)


def test_m_to_schur_round_trip():
    for lam in all_partitions_up_to(6):
        exp = m_to_schur(schur_to_m(lam, P6))
        assert exp.coeffs == {lam: 1}


def test_m_to_schur_examples():
    h2 = basis_element("h", (2,), P6)
    assert m_to_schur(h2).coeffs == {(2,): 1}
    e2 = basis_element("e", (2,), P6)
    assert m_to_schur(e2).coeffs == {(1, 1): 1}
    mixed = schur_to_m((2, 1), P6).scale(3) - schur_to_m((1, 1), P6)
    assert m_to_schur(mixed).coeffs == {(2, 1): 3, (1, 1): -1}


def test_kostka_unitriangular():
    for lam in all_partitions_up_to(6):
        row = schur_to_m(lam, P6).coeffs
        assert row[lam] == 1
        for mu, k in row.items():
            assert k > 0
            assert dominates(lam, mu)


def test_hall_inner():
    s21 = BasisExpansion("s", {(2, 1): 1}, P6)
    assert hall_inner(s21, s21) == 1
    s2 = BasisExpansion("s", {(2,): 1}, P6)
    s11 = BasisExpansion("s", {(1, 1): 1}, P6)
    assert hall_inner(s2, s11) == 0
    h2 = m_to_schur(basis_element("h", (2,), P6))
    assert hall_inner(h2, s2) == 1
    with pytest.raises(ValueError):
        hall_inner(BasisExpansion("m", {(1,): 1}, P6), s2)


def test_h_m_duality_oracle():
    # <h_lam, m_mu> = delta, via Schur conversions on both sides
    for lam in all_partitions_up_to(5):
        h = m_to_schur(basis_element("h", lam, P6))
        for mu in partitions_of(sum(lam)):
            mm = m_to_schur(basis_element("m", mu, P6))
            assert hall_inner(h, mm) == (1 if lam == mu else 0)


def test_split_alphabets_examples():
    assert split_alphabets(m((1,)), 6, 6) == \
        {((1,), EMPTY): 1, (EMPTY, (1,)): 1}
    e2 = basis_element("e", (2,), P6)
    assert split_alphabets(e2, 6, 6) == \
        {((1, 1), EMPTY): 1, ((1,), (1,)): 1, (EMPTY, (1, 1)): 1}
    # h_2 = m_2 + m_11 splits key by key
    h2 = basis_element("h", (2,), P6)
    assert split_alphabets(h2, 6, 6) == {
        ((2,), EMPTY): 1, ((1, 1), EMPTY): 1, ((1,), (1,)): 1,
        (EMPTY, (2,)): 1, (EMPTY, (1, 1)): 1}


def test_split_alphabets_respects_var_bounds():
    e2 = basis_element("e", (2,), P6)
    assert split_alphabets(e2, 1, 1) == {((1,), (1,)): 1}


def _splits_by_combinations(lam):
    """Every (gamma, beta) from choosing a set of positions of lam's parts."""
    idx = range(len(lam))
    for r in range(len(lam) + 1):
        for chosen in combinations(idx, r):
            yield (tuple(lam[i] for i in chosen),
                   tuple(lam[i] for i in idx if i not in chosen))


def test_coproduct_matches_combinations():
    for lam in all_partitions_up_to(8):
        cop = SymFunc({lam: 1}, P8).coproduct
        got = [(gamma, beta) for gamma, pairs in cop.items()
               for beta, c in pairs]
        assert len(got) == len(set(got))
        assert set(got) == set(_splits_by_combinations(lam))
        assert all(c == 1 for pairs in cop.values() for _, c in pairs)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS_6),
                       st.integers(min_value=-3, max_value=3), max_size=6))
def test_coproduct_sums_the_splits_of_each_key(terms):
    f = SymFunc(terms, P6)
    want = {}
    for lam, c in f.coeffs.items():
        for gamma, beta in set(_splits_by_combinations(lam)):
            want.setdefault(gamma, {})[beta] = c
    cop = f.coproduct
    assert set(cop) == set(want)
    for gamma, pairs in cop.items():
        assert isinstance(pairs, tuple)
        assert len(pairs) == len(want[gamma])
        assert dict(pairs) == want[gamma]


def test_split_alphabets_matches_combinations():
    f = (basis_element("h", (3, 1), P6) - basis_element("e", (2, 2), P6)
         + m((2, 1, 1, 1)).scale(3))
    for a, b in ((6, 6), (2, 3), (1, 1)):
        want = {}
        for lam, c in f.coeffs.items():
            for key in set(_splits_by_combinations(lam)):
                if len(key[0]) <= a and len(key[1]) <= b:
                    want[key] = want.get(key, 0) + c
        assert split_alphabets(f, a, b) == want


def test_split_is_multiplicative():
    # splitting a product equals convolving the splits
    pairs = [
        (basis_element("h", (2,), P6), basis_element("e", (2,), P6)),
        (basis_element("e", (2, 1), P6), basis_element("m", (1,), P6)),
        (basis_element("h", (3,), P6), basis_element("h", (2,), P6)),
    ]
    for f, g in pairs:
        lhs = split_alphabets(multiply(f, g), 6, 6)
        sf_, sg_ = split_alphabets(f, 6, 6), split_alphabets(g, 6, 6)
        rhs = {}
        for (a1, b1), c1 in sf_.items():
            fa = SymFunc({a1: 1}, P6)
            fb = SymFunc({b1: 1}, P6)
            for (a2, b2), c2 in sg_.items():
                xa = multiply(fa, SymFunc({a2: 1}, P6))
                xb = multiply(fb, SymFunc({b2: 1}, P6))
                for ka, ca in xa.coeffs.items():
                    for kb, cb in xb.coeffs.items():
                        if sum(ka) + sum(kb) > 6:
                            continue
                        key = (ka, kb)
                        rhs[key] = rhs.get(key, 0) + c1 * c2 * ca * cb
        rhs = {k: v for k, v in rhs.items() if v}
        lhs = {k: v for k, v in lhs.items() if sum(k[0]) + sum(k[1]) <= 6}
        assert lhs == rhs


def test_m_to_h_round_trips():
    for lam in all_partitions_up_to(4):
        exp = m_to_h(basis_element("h", lam, P6))
        assert exp.coeffs == {lam: 1}


def test_m_to_e_round_trips():
    for lam in all_partitions_up_to(4):
        exp = m_to_e(basis_element("e", lam, P6))
        assert exp.coeffs == {lam: 1}


# Randomized oracle for m_to_h and m_to_e: f is an integer combination of
# monomials of mixed degrees, so its Schur support cancels in places, and
# realizing either expansion through basis_element must give f back.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS_6),
                       st.integers(min_value=-3, max_value=3), max_size=6))
def test_m_to_h_and_m_to_e_realize_back(terms):
    f = SymFunc(terms, P6)
    for tag, expand in (("h", m_to_h), ("e", m_to_e)):
        exp = expand(f)
        assert exp.basis == tag
        back = SymFunc.zero(P6)
        for lam, c in exp.coeffs.items():
            back = back + basis_element(tag, lam, P6).scale(c)
        assert back.coeffs == f.coeffs


def test_inverse_kostka_columns_transpose_m_to_schur():
    # the Kostka peel of m_to_schur is the oracle of the Jacobi-Trudi columns
    for d in range(11):
        cols = _inverse_kostka_columns(d)
        assert set(cols) == set(partitions_of(d))
        rows = {}
        for nu, col in cols.items():
            assert isinstance(col, tuple)
            for lam, c in col:
                assert c
                rows.setdefault(lam, {})[nu] = c
        for lam in partitions_of(d):
            want = m_to_schur(m(lam, TruncationProfile.for_degree(d)))
            assert rows[lam] == want.coeffs


def test_cached_tables_are_read_only():
    cols = _inverse_kostka_columns(3)
    with pytest.raises(TypeError):
        cols[(3,)] = ()
    with pytest.raises(AttributeError):
        cols[(3,)].append(((3,), 1))
    cop = SymFunc({(2, 1): 1, (1,): 2}, P6).coproduct
    with pytest.raises(TypeError):
        cop[(5,)] = ()
    assert all(isinstance(pairs, tuple) for pairs in cop.values())
    with pytest.raises(AttributeError):
        cop[(1,)].append(((), 1))
    h = _h_expansion("G", (2, 1), P6)
    assert isinstance(h, tuple)
    assert all(isinstance(term, tuple) for term in h)


def test_m_to_e_of_h2():
    # h_2 = e_1^2 - e_2
    exp = m_to_e(basis_element("h", (2,), P6))
    assert exp.coeffs == {(1, 1): 1, (2,): -1}


def test_basis_expansion_validation():
    with pytest.raises(ValueError):
        BasisExpansion("q", {}, P6)
    exp = BasisExpansion("g", {(2, 1): 1, (1,): 0}, P6)
    assert exp.coeffs == {(2, 1): 1}
