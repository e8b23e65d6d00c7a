import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from staircase_groth import grothendieck as gr
from staircase_groth import symfunc as sf
from staircase_groth.grothendieck import (
    SignedCount,
    alpha,
    big_G,
    big_G_double,
    dual_g,
    expand_in_G,
    expand_in_g,
    expansion_to_symfunc,
    lr_coeff,
    schur,
    skew_by,
    tau,
    tau_bar,
    to_schur_expansion,
)
from staircase_groth.shapes import (
    EMPTY,
    SkewShape,
    conjugate,
    partitions_of,
    staircase,
    subpartitions,
)
from staircase_groth.symfunc import BasisExpansion, SymFunc, TruncationProfile


def straight(lam):
    return SkewShape(lam, EMPTY)


def all_partitions_up_to(n):
    for d in range(n + 1):
        yield from partitions_of(d)


def test_signed_count():
    assert SignedCount(3, 2).signed == 3
    assert SignedCount(3, 5).signed == -3
    assert SignedCount(0, 1).signed == 0


def test_schur_examples():
    p = TruncationProfile(3, 3)
    assert schur(SkewShape((2, 1, 1), (1,)), p).coeffs == \
        {(2, 1): 1, (1, 1, 1): 3}
    assert schur(SkewShape((2, 1), (2, 1)), p).coeffs == {EMPTY: 1}
    assert schur(straight((2,)), p).coeffs == {(2,): 1, (1, 1): 1}
    with pytest.raises(ValueError):
        schur(straight((4, 3)), p)
    with pytest.raises(ValueError):
        SkewShape((2,), (3,))


def test_schur_tables_share_one_cache():
    # gr.schur, schur_to_m and m_to_schur read one table per shape, under
    # any profile that holds it
    sf._kostka_row.cache_clear()
    lam = (3, 2, 1)
    schur(straight(lam), TruncationProfile(6, 6))
    sf.schur_to_m(lam, TruncationProfile(8, 9))
    info = sf._kostka_row.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    shape = SkewShape((3, 2, 1), (2,))
    low = schur(shape, TruncationProfile.for_degree(4))
    high = schur(shape, TruncationProfile(7, 8))
    assert low.trunc != high.trunc
    # s_1 s_21 = s_31 + s_22 + s_211
    assert low.coeffs == high.coeffs == {
        (3, 1): 1, (2, 2): 2, (2, 1, 1): 4, (1, 1, 1, 1): 8}


def test_dual_g_examples():
    p = TruncationProfile(3, 3)
    assert dual_g(SkewShape((2, 2), (1,)), p).coeffs == \
        {(2,): 1, (1, 1): 1, (2, 1): 1, (1, 1, 1): 2}
    for k in range(1, 4):
        pk = TruncationProfile.for_degree(k)
        assert dual_g(straight((k,)), pk).coeffs == \
            sf.basis_element("h", (k,), pk).coeffs
    assert dual_g(straight(EMPTY), p).coeffs == {EMPTY: 1}


def test_big_G_examples():
    assert big_G(straight((1,)), TruncationProfile(3, 3)).coeffs == \
        {(1,): 1, (1, 1): -1, (1, 1, 1): 1}
    assert big_G(straight(EMPTY), TruncationProfile(2, 2)).coeffs == {EMPTY: 1}
    assert big_G(straight((1, 1)), TruncationProfile(2, 2)).coeffs == \
        {(1, 1): 1}


def test_degree_grading():
    for lam in all_partitions_up_to(4):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            d = shape.size()
            p = TruncationProfile.for_degree(d + 2)
            s = schur(shape, p)
            assert all(sum(k) == d for k in s.coeffs)
            g = dual_g(shape, p)
            assert g.homogeneous_part(d).coeffs == s.coeffs
            assert all(sum(k) <= d for k in g.coeffs)
            G = big_G(shape, p)
            assert G.homogeneous_part(d).coeffs == s.coeffs
            assert all(sum(k) >= d for k in G.coeffs)


def test_big_G_double_examples():
    rho = staircase(3)
    p = TruncationProfile(8, 8)
    for k in (1, 2, 3):
        lhs = big_G_double(rho, (k,), p)
        rhs = big_G(SkewShape(rho, (k,)), p) - big_G(SkewShape(rho, (k - 1,)), p)
        assert lhs.coeffs == rhs.coeffs
    assert big_G_double(rho, EMPTY, p).coeffs == big_G(straight(rho), p).coeffs
    with pytest.raises(ValueError):
        big_G_double((2, 1), (2, 2), p)


def test_big_G_double_sums_to_skew():
    p = TruncationProfile(6, 6)
    for lam in ((2, 1), (2, 2), (3, 1)):
        for mu in subpartitions(lam):
            total = SymFunc.zero(p)
            for sigma in subpartitions(mu):
                total = total + big_G_double(lam, sigma, p)
            assert total.coeffs == big_G(SkewShape(lam, mu), p).coeffs


def test_lr_coeff_examples():
    assert lr_coeff((1,), (1,), (2,)).value == 1
    assert lr_coeff((1,), (1,), (2, 1)).value == 1
    assert lr_coeff((1,), (1,), (2, 1)).sign_exponent == 1
    for n in range(1, 5):
        rho = staircase(n)
        for k in range(1, n + 1):
            for nu in subpartitions(rho):
                assert lr_coeff(nu, (k,), rho).value == \
                    lr_coeff(nu, (1,) * k, rho).value


def test_alpha_examples():
    shape = SkewShape((2, 1), (1,))
    assert alpha(shape, (2,)).value == 1
    assert alpha(shape, (1, 1)).value == 1
    assert alpha(shape, (2, 1)).value == 1
    assert alpha(shape, (2, 1)).sign_exponent == 1


def test_product_of_single_boxes():
    # G_1 * G_1 = G_2 + G_11 - G_21, checked against the lattice counts
    p = TruncationProfile(4, 4)
    g1 = big_G(straight((1,)), p)
    prod = sf.multiply(g1, g1)
    total = SymFunc.zero(p)
    for lam in all_partitions_up_to(4):
        sc = lr_coeff((1,), (1,), lam)
        if sc.value:
            total = total + big_G(straight(lam), p).scale(sc.signed)
    assert prod.coeffs == total.coeffs
    assert lr_coeff((1,), (1,), (2,)).value == 1
    assert lr_coeff((1,), (1,), (1, 1)).value == 1
    assert lr_coeff((1,), (1,), (2, 1)).value == 1


def test_buch_product_identity():
    for nu in all_partitions_up_to(2):
        for mu in all_partitions_up_to(4 - sum(nu)):
            d = sum(nu) + sum(mu) + 2
            p = TruncationProfile.for_degree(d)
            prod = sf.multiply(big_G(straight(nu), p), big_G(straight(mu), p))
            total = SymFunc.zero(p)
            for lam in all_partitions_up_to(d):
                sc = lr_coeff(nu, mu, lam)
                if sc.value:
                    total = total + big_G(straight(lam), p).scale(sc.signed)
            assert prod.coeffs == total.coeffs, (nu, mu)


def test_buch_skew_expansion():
    # G(lam/mu) as a signed alpha combination of straight G's
    for lam in all_partitions_up_to(6):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            d = shape.size() + 2
            p = TruncationProfile.for_degree(d)
            lhs = big_G(shape, p)
            total = SymFunc.zero(p)
            for s in range(shape.size(), d + 1):
                for nu in partitions_of(s):
                    sc = alpha(shape, nu)
                    if sc.value:
                        total = total + big_G(straight(nu), p).scale(sc.signed)
            assert lhs.coeffs == total.coeffs, (lam, mu)


def test_expand_in_g_round_trip():
    for lam in all_partitions_up_to(5):
        p = TruncationProfile.for_degree(max(sum(lam), 1))
        exp = expand_in_g(dual_g(straight(lam), p))
        assert exp.basis == "g" and exp.coeffs == {lam: 1}


def test_expand_in_g_of_h():
    for k in range(1, 5):
        p = TruncationProfile.for_degree(k)
        exp = expand_in_g(sf.basis_element("h", (k,), p))
        assert exp.coeffs == {(k,): 1}


def test_expand_in_g_top_matches_schur_expansion():
    p = TruncationProfile(3, 3)
    exp = expand_in_g(dual_g(SkewShape((2, 2), (1,)), p))
    top = {k: v for k, v in exp.coeffs.items() if sum(k) == 3}
    s_exp = sf.m_to_schur(schur(SkewShape((2, 2), (1,)), p))
    assert top == s_exp.coeffs


def test_expand_in_G_round_trip():
    for lam in all_partitions_up_to(5):
        p = TruncationProfile.for_degree(max(sum(lam) + 2, 1))
        exp = expand_in_G(big_G(straight(lam), p))
        assert exp.basis == "G" and exp.coeffs == {lam: 1}


def test_expand_in_G_of_e():
    p = TruncationProfile(7, 7)
    for k in range(1, 5):
        exp = expand_in_G(sf.basis_element("e", (k,), p))
        assert exp.coeffs == {(1,) * n: comb(n - 1, k - 1)
                              for n in range(k, 8)}


def test_G_column_as_alternating_e_sum():
    p = TruncationProfile(7, 7)
    for k in range(1, 5):
        lhs = big_G(straight((1,) * k), p)
        rhs = SymFunc.zero(p)
        for n in range(k, 8):
            term = sf.basis_element("e", (n,), p).scale(comb(n - 1, k - 1))
            rhs = rhs + (term if (n - k) % 2 == 0 else -term)
        assert lhs.coeffs == rhs.coeffs


def test_tau_and_tau_bar():
    p = TruncationProfile(5, 5)
    cols = BasisExpansion("G", {(1, 1, 1): 1}, p)
    assert tau(cols).coeffs == {(3,): 1}
    rng = random.Random(11)
    keys = list(all_partitions_up_to(5))
    coeffs = {k: rng.randint(-3, 3) for k in rng.sample(keys, 6)}
    exp = BasisExpansion("G", coeffs, p)
    assert tau(tau(exp)).coeffs == exp.coeffs
    gexp = BasisExpansion("g", coeffs, p)
    assert tau_bar(tau_bar(gexp)).coeffs == gexp.coeffs
    assert tau_bar(BasisExpansion("g", {(2,): 1}, p)).coeffs == {(1, 1): 1}
    assert tau_bar(BasisExpansion("g", {(2, 1): 1}, p)).coeffs == {(2, 1): 1}
    with pytest.raises(ValueError):
        tau(gexp)
    with pytest.raises(ValueError):
        tau_bar(exp)


def test_tau_of_e_expansion():
    p = TruncationProfile(6, 6)
    for k in (1, 2, 3):
        exp = tau(expand_in_G(sf.basis_element("e", (k,), p)))
        assert exp.coeffs == {(n,): comb(n - 1, k - 1) for n in range(k, 7)}


def test_tau_commutes_with_truncation():
    # conjugation preserves degree, so dropping high keys before or after
    # conjugating gives the same expansion
    p6 = TruncationProfile(6, 6)
    p4 = TruncationProfile(4, 4)
    exp = expand_in_G(sf.basis_element("e", (2,), p6))
    cut_then_tau = tau(BasisExpansion("G", dict(exp.coeffs), p4))
    tau_then_cut = BasisExpansion("G", dict(tau(exp).coeffs), p4)
    assert cut_then_tau.coeffs == tau_then_cut.coeffs
    gexp = expand_in_g(dual_g(straight((3, 2)), TruncationProfile(5, 5)))
    cut = BasisExpansion("g", dict(gexp.coeffs), p4)
    assert tau_bar(cut).coeffs == \
        {k: v for k, v in tau_bar(gexp).coeffs.items() if sum(k) <= 4}


def test_skew_by_identity_element():
    p = TruncationProfile(4, 4)
    a = dual_g(straight((2, 1)), p)
    one = BasisExpansion("s", {EMPTY: 1}, p)
    assert skew_by(one, a).coeffs == a.coeffs


def test_skew_by_G_gives_skew_g():
    for lam in all_partitions_up_to(4):
        p = TruncationProfile.for_degree(max(sum(lam), 1))
        glam = dual_g(straight(lam), p)
        for mu in subpartitions(lam):
            lhs = skew_by(BasisExpansion("G", {mu: 1}, p), glam)
            rhs = dual_g(SkewShape(lam, mu), p)
            assert lhs.coeffs == rhs.coeffs, (lam, mu)


def test_skew_by_g_gives_double_skew_G():
    rho = staircase(2)
    d = sum(rho) + 2
    ext = TruncationProfile.for_degree(d + sum(rho))
    series = big_G(straight(rho), ext)
    p = TruncationProfile.for_degree(d)
    for mu in subpartitions(rho):
        skewed = skew_by(BasisExpansion("g", {mu: 1}, ext), series)
        lhs = SymFunc({k: v for k, v in skewed.coeffs.items()
                       if sum(k) <= d}, p)
        assert lhs.coeffs == big_G_double(rho, mu, p).coeffs, mu


def _skew_uncached(f, a):
    """skew_by with f's h-expansion taken whole at a's profile and a's keys
    split by choosing positions of their parts."""
    fh = sf.m_to_h(expansion_to_symfunc(f, a.trunc)).coeffs
    out = {}
    for lam, c in a.coeffs.items():
        idx = range(len(lam))
        splits = {(tuple(lam[i] for i in chosen),
                   tuple(lam[i] for i in idx if i not in chosen))
                  for r in range(len(lam) + 1)
                  for chosen in combinations(idx, r)}
        for gamma, beta in splits:
            out[beta] = out.get(beta, 0) + fh.get(gamma, 0) * c
    return SymFunc(out, a.trunc)


def test_skew_by_h_cache_is_keyed_by_operand_profile():
    p3, p5 = TruncationProfile.for_degree(3), TruncationProfile.for_degree(5)
    small = dual_g(straight((2, 1)), p3)
    large = big_G(straight((2, 1)), p5)
    # (2, 2) is above small's cap, so it drops out there
    f = BasisExpansion("G", {(1,): 1, (2, 2): -2}, p5)
    assert gr._h_expansion("G", (2, 2), p3) == ()
    without = BasisExpansion("G", {(1,): 1}, p5)
    for order in ((small, large), (large, small)):
        gr._h_expansion.cache_clear()
        for a in order + order:  # fresh, then warm
            got = skew_by(f, a)
            assert got.coeffs == _skew_uncached(f, a).coeffs
            assert got.trunc == a.trunc
        assert skew_by(f, small) == skew_by(without, small)
        assert skew_by(f, large) != skew_by(without, large)


def test_adjunction_small():
    p = TruncationProfile(5, 5)
    smalls = list(all_partitions_up_to(2))
    for lam in smalls:
        for nu in smalls:
            for mu in all_partitions_up_to(3):
                a = sf.schur_to_m(mu, p)
                lhs = sf.hall_inner(
                    BasisExpansion("s", {nu: 1}, p),
                    sf.m_to_schur(skew_by(BasisExpansion("s", {lam: 1}, p), a)))
                prod = sf.multiply(sf.schur_to_m(lam, p), sf.schur_to_m(nu, p))
                rhs = sf.m_to_schur(prod).coeffs.get(mu, 0)
                assert lhs == rhs


def test_duality_of_bases():
    p = TruncationProfile(4, 4)
    parts = list(all_partitions_up_to(4))
    for lam in parts:
        Gexp = sf.m_to_schur(big_G(straight(lam), p))
        for mu in parts:
            gexp = sf.m_to_schur(dual_g(straight(mu), p))
            assert sf.hall_inner(Gexp, gexp) == (1 if lam == mu else 0)


def test_comultiplication_of_g():
    for lam in all_partitions_up_to(4):
        p = TruncationProfile.for_degree(max(sum(lam), 1))
        nv = p.num_vars
        lhs = sf.split_alphabets(dual_g(straight(lam), p), nv, nv)
        rhs = {}
        for mu in subpartitions(lam):
            for k1, c1 in dual_g(straight(mu), p).coeffs.items():
                for k2, c2 in dual_g(SkewShape(lam, mu), p).coeffs.items():
                    rhs[(k1, k2)] = rhs.get((k1, k2), 0) + c1 * c2
        assert lhs == {k: v for k, v in rhs.items() if v}


def test_comultiplication_of_G_on_staircases():
    for n, d in ((2, 5), (3, 7)):
        rho = staircase(n)
        p = TruncationProfile.for_degree(d)
        lhs = sf.split_alphabets(big_G(straight(rho), p), d, d)
        rhs = {}
        for nu in subpartitions(rho):
            gx = big_G(straight(nu), p).coeffs
            gy = big_G_double(rho, nu, p).coeffs
            for k1, c1 in gx.items():
                for k2, c2 in gy.items():
                    if sum(k1) + sum(k2) <= d:
                        key = (k1, k2)
                        rhs[key] = rhs.get(key, 0) + c1 * c2
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, n


def test_expansion_to_symfunc_and_back():
    p = TruncationProfile(5, 5)
    exp = BasisExpansion("g", {(2, 1): 2, (1,): -1}, p)
    f = expansion_to_symfunc(exp)
    assert expand_in_g(f).coeffs == exp.coeffs
    sexp = to_schur_expansion(BasisExpansion("h", {(2,): 1}, p))
    assert sexp.coeffs == {(2,): 1}


def test_stembridge_factorization_example():
    # rho_3 minus a full top row factors into disconnected components
    p = TruncationProfile(4, 4)
    lhs = dual_g(SkewShape((3, 2, 1), (2,)), p)
    rhs = sf.multiply(dual_g(straight((2, 1)), p), dual_g(straight((1,)), p))
    assert lhs.coeffs == rhs.coeffs


# Randomized oracles for the peel, the index conjugation and the rook-strip
# sum.  Skew shapes inside partitions of at most 6 cells, largest first:
# hypothesis favours the first entries, which are the smallest shapes.
SHAPES_6 = sorted({SkewShape(lam, mu) for d in range(7)
                   for lam in partitions_of(d) for mu in subpartitions(lam)},
                  key=lambda s: (-s.size(), s.outer, s.inner))
_CONSTRUCTORS = {"g": dual_g, "G": big_G}


def slow_realize(exp):
    """Oracle for expansion_to_symfunc on the g and G bases: one
    constructor call per key, summed with SymFunc +."""
    total = SymFunc.zero(exp.trunc)
    for lam, c in exp.coeffs.items():
        total = total + _CONSTRUCTORS[exp.basis](straight(lam), exp.trunc).scale(c)
    return total


def is_rook_strip(mu, sigma):
    """At most one cell of mu/sigma in each row and in each column."""
    def diffs(a, b):
        return [x - (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
    return all(d <= 1 for d in diffs(mu, sigma) + diffs(conjugate(mu),
                                                        conjugate(sigma)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SHAPES_6), st.integers(min_value=0, max_value=2))
def test_peels_round_trip_through_expansion_to_symfunc(shape, extra):
    p = TruncationProfile.for_degree(shape.size() + extra)
    for f, expand in ((dual_g(shape, p), expand_in_g),
                      (big_G(shape, p), expand_in_G),
                      (schur(shape, p), expand_in_g),
                      (schur(shape, p), expand_in_G)):
        exp = expand(f)
        assert expansion_to_symfunc(exp).coeffs == f.coeffs
        assert slow_realize(exp).coeffs == f.coeffs
    if not shape.inner:
        assert expand_in_g(dual_g(shape, p)).coeffs == {shape.outer: 1}
        assert expand_in_G(big_G(shape, p)).coeffs == {shape.outer: 1}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(SHAPES_6), st.integers(min_value=0, max_value=2))
def test_tau_and_tau_bar_are_involutions(shape, extra):
    p = TruncationProfile.for_degree(shape.size() + extra)
    gexp = expand_in_g(dual_g(shape, p))
    Gexp = expand_in_G(big_G(shape, p))
    for conj, exp, other in ((tau, Gexp, gexp), (tau_bar, gexp, Gexp)):
        once = conj(exp)
        assert once.basis == exp.basis
        assert once.coeffs == {conjugate(k): c for k, c in exp.coeffs.items()}
        assert conj(once).coeffs == exp.coeffs
        with pytest.raises(ValueError):
            conj(other)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(SHAPES_6), st.integers(min_value=0, max_value=2))
def test_big_G_double_matches_slow_rook_strip_sum(shape, extra):
    outer, mu = shape.outer, shape.inner
    p = TruncationProfile.for_degree(sum(outer) + extra)
    want = SymFunc.zero(p)
    for sigma in subpartitions(mu):
        if is_rook_strip(mu, sigma):
            term = big_G(SkewShape(outer, sigma), p)
            want = want + (-term if (sum(mu) - sum(sigma)) % 2 else term)
    assert big_G_double(outer, mu, p).coeffs == want.coeffs


# Randomized oracle for skew_by: the Hall adjunction
# <s_nu, skew_by(f, a)> = <f s_nu, a>, with the dense product, the Kostka
# peel and the Hall pairing as the slow side.  f is one term in one of five
# bases, keyed by a partition of at most one cell above a's degree cap; such
# a key realizes to zero at a's profile.  In some examples f has a second
# term whose key has another size (h_1 + h_3, say), so the h-expansion of f
# can miss sizes and have sizes above some keys of a.
SHAPES_5 = [s for s in SHAPES_6 if s.size() <= 5]
_OPERANDS = {"s": schur, "g": dual_g, "G": big_G}
_COEFFS = (1, -1, 2, -3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SHAPES_5), st.sampled_from(sorted(_OPERANDS)),
       st.integers(min_value=0, max_value=2),
       st.sampled_from(("s", "h", "e", "g", "G")),
       st.sampled_from(_COEFFS), st.data())
def test_skew_by_matches_hall_adjunction(shape, kind, extra, basis, c, data):
    p = TruncationProfile.for_degree(shape.size() + extra)
    sizes = st.integers(min_value=0, max_value=p.max_degree + 1)
    size = data.draw(sizes)
    terms = {data.draw(st.sampled_from(list(partitions_of(size)))): c}
    if data.draw(st.booleans()):
        size2 = data.draw(sizes.filter(lambda s: s != size))
        key2 = data.draw(st.sampled_from(list(partitions_of(size2))))
        terms[key2] = data.draw(st.sampled_from(_COEFFS))
    top = max(map(sum, terms))
    a = _OPERANDS[kind](shape, p)
    f = BasisExpansion(basis, terms,
                       TruncationProfile.for_degree(max(p.max_degree, top)))
    fm = expansion_to_symfunc(f, p)
    got = skew_by(f, a)
    if fm.is_zero():
        assert min(map(sum, terms)) > p.max_degree
        assert got == SymFunc.zero(p)
        return
    a_s = sf.m_to_schur(a)
    want = {}
    for nu in all_partitions_up_to(p.max_degree - min(fm.degrees())):
        prod = sf.multiply(fm, sf.schur_to_m(nu, p))
        v = sf.hall_inner(sf.m_to_schur(prod), a_s)
        if v:
            want[nu] = v
    assert sf.m_to_schur(got).coeffs == want
