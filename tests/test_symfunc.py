import dataclasses
import gc
import random
import re
import tracemalloc
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from staircase_groth.grothendieck import (
    _h_expansion,
    big_G,
    expand_in_G,
    expand_in_g,
    skew_by,
)
from staircase_groth.shapes import (
    EMPTY,
    SkewShape,
    graded_lex_key,
    partitions_of,
    subpartitions,
)
from staircase_groth.symfunc import (
    BASES,
    BasisExpansion,
    SymFunc,
    TruncationProfile,
    _inverse_kostka_columns,
    _schur_by_columns,
    basis_element,
    hall_inner,
    m_to_e,
    m_to_h,
    m_to_schur,
    multiply,
    schur_to_m,
    split_alphabets,
)

P6 = TruncationProfile(6)
P8 = TruncationProfile(8)


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
        TruncationProfile(-1)
    # the degree cap is the only setting; the variable count the reports
    # list follows from it
    assert [f.name for f in dataclasses.fields(TruncationProfile)] == [
        "max_degree"]
    for d in range(4):
        assert TruncationProfile(d).num_vars == max(d, 1)
    assert TruncationProfile.for_degree(0) == TruncationProfile(0)


def test_add():
    one = m((1,))
    assert (one + one).coeffs == {(1,): 2}
    f = m((2,)) + m((1, 1)).scale(3)
    assert (f + SymFunc.zero(P6)).coeffs == f.coeffs
    assert (m((2,)) - m((2,))).is_zero()
    with pytest.raises(ValueError):
        m((1,)) + m((1,), TruncationProfile(5))


def test_multiply_examples():
    assert (m((1,)) * m((1,))).coeffs == {(2,): 1, (1, 1): 2}
    f = m((2, 1)) + m((1,)).scale(-2)
    assert (f * SymFunc.one(P6)).coeffs == f.coeffs
    e1 = basis_element("e", (1,), P6)
    e2 = basis_element("e", (2,), P6)
    assert (e1 * e1 - e2.scale(2)).coeffs == {(2,): 1}


def test_multiply_truncates():
    p = TruncationProfile(2)
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
    assert split_alphabets(m((1,))) == \
        {((1,), EMPTY): 1, (EMPTY, (1,)): 1}
    e2 = basis_element("e", (2,), P6)
    assert split_alphabets(e2) == \
        {((1, 1), EMPTY): 1, ((1,), (1,)): 1, (EMPTY, (1, 1)): 1}
    # h_2 = m_2 + m_11 splits key by key
    h2 = basis_element("h", (2,), P6)
    assert split_alphabets(h2) == {
        ((2,), EMPTY): 1, ((1, 1), EMPTY): 1, ((1,), (1,)): 1,
        (EMPTY, (2,)): 1, (EMPTY, (1, 1)): 1}


def _splits_by_combinations(lam):
    """Every (gamma, beta) from choosing a set of positions of lam's parts."""
    idx = range(len(lam))
    for r in range(len(lam) + 1):
        for chosen in combinations(idx, r):
            yield (tuple(lam[i] for i in chosen),
                   tuple(lam[i] for i in idx if i not in chosen))


def _splits_by_gamma(f):
    """The brute-force coproduct of f: gamma -> {beta: coefficient}."""
    want = {}
    for lam, c in f.coeffs.items():
        for gamma, beta in set(_splits_by_combinations(lam)):
            want.setdefault(gamma, {})[beta] = c
    return want


def _check_beta_index(cop):
    """betas holds each right factor once, each derived entry is () or
    parallel tuples (js, cs), and the entries reference every index,
    each in range."""
    betas = cop.betas
    assert isinstance(betas, tuple)
    assert len(betas) == len(set(betas))
    for entry in cop.splits.values():
        assert isinstance(entry, tuple)
        if entry:
            js, cs = entry
            assert isinstance(js, tuple) and isinstance(cs, tuple)
            assert len(js) == len(cs) > 0
    used = {j for entry in cop.splits.values() if entry for j in entry[0]}
    assert all(0 <= j < len(betas) for j in used)
    assert used == set(range(len(betas)))


def _read(cop, gamma):
    """The entry of gamma as {beta: coefficient}."""
    js, cs = cop[gamma]
    betas = cop.betas
    assert len(js) == len(set(js))
    return {betas[j]: c for j, c in zip(js, cs)}


def test_coproduct_matches_combinations():
    # split_alphabets reads every gamma with splits through the table
    for lam in all_partitions_up_to(8):
        f = SymFunc({lam: 1}, P8)
        split_alphabets(f)
        cop = f.coproduct
        _check_beta_index(cop)
        got = [(gamma, cop.betas[j]) for gamma, entry in cop.splits.items()
               for j in entry[0]]
        assert len(got) == len(set(got))
        assert set(got) == set(_splits_by_combinations(lam))
        assert all(c == 1 for _, cs in cop.splits.values() for c in cs)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS_6),
                       st.integers(min_value=-3, max_value=3), max_size=6))
def test_coproduct_sums_the_splits_of_each_key(terms):
    f = SymFunc(terms, P6)
    want = _splits_by_gamma(f)
    cop = f.coproduct
    for gamma in sorted(want, key=graded_lex_key):
        assert _read(cop, gamma) == want[gamma]
    _check_beta_index(cop)
    assert {g for g, entry in cop.splits.items() if entry} == set(want)


# gammas in no key of any f below: too large, or with a part above 6
_GAMMAS_IN_NO_KEY = [(7,), (2, 2, 2, 1), (4, 3), (3, 3, 1, 1), (9, 1)]


# Randomized oracle for the lazily filled split table: gammas are read in
# a drawn order, with repeats and gammas in no key, and every entry
# derived on the way, prefixes included, must be the brute-force one.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS_6),
                       st.integers(min_value=-3, max_value=3), max_size=6),
       st.data())
def test_split_table_is_filled_in_any_order(terms, data):
    f = SymFunc(terms, P6)
    want = _splits_by_gamma(f)
    pool = sorted(set(want) | set(_KEYS_6[:12]) | set(_GAMMAS_IN_NO_KEY),
                  key=graded_lex_key)
    reads = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    reads = data.draw(st.permutations(reads + reads[::2]))
    cop = f.coproduct
    for gamma in reads:
        assert _read(cop, gamma) == want.get(gamma, {}), gamma
    prefixes = {gamma[:i] for gamma in reads for i in range(len(gamma) + 1)}
    assert set(cop.splits) == prefixes | {EMPTY}
    for gamma in cop.splits:
        assert _read(cop, gamma) == want.get(gamma, {}), gamma
    _check_beta_index(cop)


def test_split_alphabets_matches_combinations():
    f = (basis_element("h", (3, 1), P6) - basis_element("e", (2, 2), P6)
         + m((2, 1, 1, 1)).scale(3))
    want = {}
    for lam, c in f.coeffs.items():
        for key in set(_splits_by_combinations(lam)):
            want[key] = want.get(key, 0) + c
    assert split_alphabets(f) == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS_6),
                       st.integers(min_value=-3, max_value=3), max_size=6))
def test_split_alphabets_of_random_f_matches_combinations(terms):
    f = SymFunc(terms, P6)
    want = {}
    for lam, c in f.coeffs.items():
        for key in set(_splits_by_combinations(lam)):
            want[key] = want.get(key, 0) + c
    assert split_alphabets(f) == want
    _check_beta_index(f.coproduct)


def test_split_is_multiplicative():
    # splitting a product equals convolving the splits
    pairs = [
        (basis_element("h", (2,), P6), basis_element("e", (2,), P6)),
        (basis_element("e", (2, 1), P6), basis_element("m", (1,), P6)),
        (basis_element("h", (3,), P6), basis_element("h", (2,), P6)),
    ]
    for f, g in pairs:
        lhs = split_alphabets(multiply(f, g))
        sf_, sg_ = split_alphabets(f), split_alphabets(g)
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


# keys of the randomized mixed-degree f below: every partition of size <= 9
_KEYS_9 = list(all_partitions_up_to(9))
P9 = TruncationProfile(9)


# Randomized oracle for the Schur step of m_to_h and m_to_e, read from the
# inverse Kostka columns: the Kostka peel of m_to_schur reads the ssyt
# chain tables instead, so it checks the Jacobi-Trudi columns
# independently.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS_9),
                       st.integers(min_value=-3, max_value=3), max_size=5))
def test_schur_by_columns_matches_the_kostka_peel(terms):
    f = SymFunc(terms, P9)
    # same coefficients in the same order, which m_to_h's output order keeps
    assert list(_schur_by_columns(f).items()) == \
        list(m_to_schur(f).coeffs.items())
    for tag, expand in (("h", m_to_h), ("e", m_to_e)):
        back = SymFunc.zero(P9)
        for lam, c in expand(f).coeffs.items():
            back = back + basis_element(tag, lam, P9).scale(c)
        assert back.coeffs == f.coeffs


def _schur_by_every_column(f):
    """[s_nu] f summed over every inverse Kostka column of each degree."""
    out = {}
    for d in f.degrees():
        sub = {lam: c for lam, c in f.coeffs.items() if sum(lam) == d}
        for nu, col in _inverse_kostka_columns(d).items():
            c = sum(sub.get(lam, 0) * k for lam, k in col)
            if c:
                out[nu] = c
    return out


# _schur_by_columns skips each column whose nu is lex-above every key of
# its degree; the skipped columns must all have summed to 0
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(_KEYS_9),
                       st.integers(min_value=-3, max_value=3), max_size=5))
def test_schur_by_columns_skips_only_zero_columns(terms):
    f = SymFunc(terms, P9)
    assert list(_schur_by_columns(f).items()) == \
        list(_schur_by_every_column(f).items())


@pytest.mark.parametrize("key", [(1, 2), (2, 0), (2, 0, 1), (1, 1, 2)])
def test_keys_that_are_not_partitions_raise(key):
    # no key is read as its sorted form, which another key may also be
    f = SymFunc({key: 1, (1,): 2}, P6)
    for expand in (m_to_h, m_to_e, m_to_schur, expand_in_g, expand_in_G):
        with pytest.raises(ValueError, match=re.escape(str(key))):
            expand(f)
    with pytest.raises(ValueError, match=re.escape(str(key))):
        skew_by(BasisExpansion("s", {key: 1}, P6), m((2, 1)))
    with pytest.raises(ValueError, match=re.escape(str(key))):
        f.coproduct
    for left, right in ((f, m((1,))), (m((1,)), f)):
        with pytest.raises(ValueError, match=re.escape(str(key))):
            multiply(left, right)
    # nor is a left factor read from the split table
    with pytest.raises(ValueError, match=re.escape(str(key))):
        m((2, 1)).coproduct[key]


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
                assert lam >= nu  # lam dominates nu, so is lex-above it
                rows.setdefault(lam, {})[nu] = c
        for lam in partitions_of(d):
            want = m_to_schur(m(lam, TruncationProfile.for_degree(d)))
            assert rows[lam] == want.coeffs


def test_cached_tables_are_read_only():
    table = _inverse_kostka_columns(3)
    with pytest.raises(TypeError):
        table[(3,)] = ()
    with pytest.raises(AttributeError):
        table[(3,)].append(((3,), 1))
    cop = SymFunc({(2, 1): 1, (1,): 2}, P6).coproduct
    for gamma in ((1,), (2, 1), (3,)):  # the last is in no key
        cop[gamma]
    with pytest.raises(TypeError):
        cop.splits[(5,)] = ()
    assert all(isinstance(pairs, tuple) for pairs in cop.splits.values())
    with pytest.raises(AttributeError):
        cop.splits[(1,)].append((0, 1))
    with pytest.raises(AttributeError):
        cop.splits[(1,)][0].append(0)
    with pytest.raises(AttributeError):
        cop[(1,)][0].append(0)
    with pytest.raises(AttributeError):
        cop.betas.append((5,))
    with pytest.raises(AttributeError):
        cop.betas = ()
    with pytest.raises(AttributeError):
        cop.splits = {}
    h = _h_expansion("G", (2, 1), P6)
    assert isinstance(h, tuple)
    assert all(isinstance(term, tuple) for term in h)
    gammas, coeffs = h
    assert len(gammas) == len(coeffs)


def test_coproduct_of_G_rho4_is_compact():
    # the 42 skews by g_mu of G_{rho_4} at degree 22 read 46 left factors
    # with splits besides (), which hold 16,242 of the 46,024 splits;
    # each costs an index and a coefficient in two parallel tuples, and
    # with the right factors it names the table keeps under 40 bytes a
    # split
    trunc = TruncationProfile(22)
    f = SymFunc(dict(big_G(SkewShape((4, 3, 2, 1), EMPTY), trunc).coeffs),
                trunc)
    ops = [BasisExpansion("g", {mu: 1}, trunc)
           for mu in subpartitions((4, 3, 2, 1))]
    assert len(ops) == 42
    for op in ops:  # the h-expansions are cached, not the table's
        _h_expansion("g", next(iter(op.coeffs)), trunc)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        cop = f.coproduct
        for op in ops:
            skew_by(op, f)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    keys = len(f.coeffs)
    assert len(cop.splits[EMPTY][0]) == keys == 897
    derived = {g: len(e[0]) for g, e in cop.splits.items() if e and g}
    assert len(derived) == 46
    n_splits = sum(derived.values())
    assert n_splits == 16242
    assert sum(prod(lam.count(v) + 1 for v in set(lam))
               for lam in f.coeffs) == 46024
    assert retained <= 40 * (n_splits + keys), retained / (n_splits + keys)


def test_m_to_e_of_h2():
    # h_2 = e_1^2 - e_2
    exp = m_to_e(basis_element("h", (2,), P6))
    assert exp.coeffs == {(1, 1): 1, (2,): -1}


def test_basis_expansion_validation():
    with pytest.raises(ValueError):
        BasisExpansion("q", {}, P6)
    exp = BasisExpansion("g", {(2, 1): 1, (1,): 0}, P6)
    assert exp.coeffs == {(2, 1): 1}


@pytest.mark.parametrize("basis", BASES)
def test_basis_expansion_truncation_rule(basis):
    # keys at the cap stay; a key above it is dropped where its element has
    # no degree up to the cap, and raises in the g basis, where it has
    p2 = TruncationProfile(2)
    at_cap = {(2,): 3, (1, 1): -1, (1,): 2}
    assert BasisExpansion(basis, at_cap, p2).coeffs == at_cap
    above = {(2, 1): 1, (1,): 2}
    if basis == "g":
        with pytest.raises(ValueError, match="exceeds max_degree 2"):
            BasisExpansion(basis, above, p2)
    else:
        assert BasisExpansion(basis, above, p2).coeffs == {(1,): 2}
