import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from staircase_groth import grothendieck as gr
from staircase_groth import symfunc as sf
from staircase_groth import tableaux as tb
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
    classify_strip,
    conjugate,
    partitions_of,
    staircase,
    subpartitions,
)
from staircase_groth.symfunc import BasisExpansion, SymFunc, TruncationProfile
from staircase_groth.verify import verify_hopf


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
    p = TruncationProfile(3)
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
    schur(straight(lam), TruncationProfile(6))
    sf.schur_to_m(lam, TruncationProfile(8))
    info = sf._kostka_row.cache_info()
    assert (info.currsize, info.hits) == (1, 1)
    shape = SkewShape((3, 2, 1), (2,))
    low = schur(shape, TruncationProfile.for_degree(4))
    high = schur(shape, TruncationProfile(7))
    assert low.trunc != high.trunc
    # s_1 s_21 = s_31 + s_22 + s_211
    assert low.coeffs == high.coeffs == {
        (3, 1): 1, (2, 2): 2, (2, 1, 1): 4, (1, 1, 1, 1): 8}


def test_dual_g_examples():
    p = TruncationProfile(3)
    assert dual_g(SkewShape((2, 2), (1,)), p).coeffs == \
        {(2,): 1, (1, 1): 1, (2, 1): 1, (1, 1, 1): 2}
    for k in range(1, 4):
        pk = TruncationProfile.for_degree(k)
        assert dual_g(straight((k,)), pk).coeffs == \
            sf.basis_element("h", (k,), pk).coeffs
    assert dual_g(straight(EMPTY), p).coeffs == {EMPTY: 1}


def test_big_G_examples():
    assert big_G(straight((1,)), TruncationProfile(3)).coeffs == \
        {(1,): 1, (1, 1): -1, (1, 1, 1): 1}
    assert big_G(straight(EMPTY), TruncationProfile(2)).coeffs == {EMPTY: 1}
    assert big_G(straight((1, 1)), TruncationProfile(2)).coeffs == \
        {(1, 1): 1}


# The constructors skip SymFunc's clean: each must equal the clean of the
# graded cut, with no zero and no key above the budget, and must own its
# map.  Two requests on one outer shape of at most 8 cells, at budgets
# from below the cell count to 3 above it, run in both orders, so the
# second may rebuild the table the first built.
_READ_OUTERS = [lam for d in range(1, 9) for lam in partitions_of(d)]
_KIND_CONSTRUCTORS = ((tb.SSYT, schur), (tb.RPP, dual_g), (tb.SVT, big_G))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(_READ_OUTERS), st.data())
def test_constructors_read_a_clean_copy_of_the_graded_cut(outer, data):
    inners = st.sampled_from(subpartitions(outer))
    offsets = st.integers(min_value=-1, max_value=3)
    requests = [(SkewShape(outer, data.draw(inners)), data.draw(offsets))
                for _ in range(2)]
    for order in (requests, requests[::-1]):
        tb._chain_cache.clear()
        for shape, offset in order:
            budget = max(shape.size() + offset, 0)
            trunc = TruncationProfile(budget)
            for kind, build in _KIND_CONSTRUCTORS:
                if kind != tb.SVT and budget < shape.size():
                    with pytest.raises(ValueError):
                        build(shape, trunc)
                    continue
                _clear_constructor_caches()
                f = build(shape, trunc)
                cut = tb._graded(shape.outer, shape.inner, kind, budget)
                assert f == SymFunc(cut, trunc), (kind, shape, budget)
                assert all(f.coeffs.values())
                assert all(sum(k) <= budget for k in f.coeffs)
                # writing to the returned maps leaves the table as it was
                want = dict(cut)
                f.coeffs.clear()
                cut.clear()
                _clear_constructor_caches()
                assert tb._graded(shape.outer, shape.inner, kind, budget) == want
                assert build(shape, trunc).coeffs == want


def _clear_constructor_caches():
    sf._kostka_row.cache_clear()
    gr._dual_g_cached.cache_clear()
    gr._big_G_cached.cache_clear()


def test_warm_reads_build_no_second_shape(monkeypatch):
    # the caller's SkewShape checks the partitions once; a read behind it,
    # from warm chain tables, checks nothing again
    shape = SkewShape((4, 3, 1), (2,))
    trunc = TruncationProfile(10)
    reads = (lambda: schur(shape, trunc), lambda: dual_g(shape, trunc),
             lambda: big_G(shape, trunc),
             lambda: big_G_double((4, 3, 1), (2, 1), trunc))
    for read in reads:
        read()
    built = []
    init = SkewShape.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SkewShape, "__init__", counted)
    for read in reads:
        _clear_constructor_caches()
        gr._big_G_double_cached.cache_clear()
        want = read()
        assert built == []
        assert read() == want


def test_public_reads_still_validate():
    P = TruncationProfile(4)
    with pytest.raises(ValueError):
        tb.content_counts(straight((2, 1)), "bad")
    with pytest.raises(ValueError):
        tb.content_counts(SkewShape((2,), (3,)), tb.RPP)
    with pytest.raises(ValueError):
        tb.signed_svt_counts(SkewShape((1, 2), EMPTY), max_total_size=4)
    with pytest.raises(ValueError):
        sf.schur_to_m((1, 2), P)
    for basis in "gGs":
        with pytest.raises(ValueError):
            expansion_to_symfunc(BasisExpansion(basis, {(1, 2): 1}, P))
    with pytest.raises(ValueError):
        big_G_double((2, 1), (1, 2), P)


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


def aitken(lam, mu):
    """f^{lam/mu}, the standard tableaux of lam/mu, by Aitken's
    determinant N! det[1/(lam_i - mu_j - i + j)!], in exact arithmetic:
    a closed form that shares nothing with the chain tables."""
    ell = len(lam)
    mu = mu + (0,) * (ell - len(mu))
    m = [[Fraction(1, factorial(lam[i] - mu[j] - i + j))
          if lam[i] - mu[j] - i + j >= 0 else Fraction(0)
          for j in range(ell)] for i in range(ell)]
    det = Fraction(1)
    for c in range(ell):
        pivot = next((r for r in range(c, ell) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, ell):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return factorial(sum(lam) - sum(mu)) * det


def test_aitken_examples():
    assert aitken((2, 1), EMPTY) == 2
    assert aitken((3, 2, 1), EMPTY) == 16
    assert aitken((2, 2), (1,)) == 2
    assert aitken((2, 1), (2, 1)) == 1


def test_degree_grading_on_the_staircase():
    # every mu inside rho_6, where the order in which the chain tables
    # walk their contents matters: the ssyt count at content 1^N is
    # Aitken's f^{rho/mu}, and s_{rho/mu} is the top degree of g and the
    # bottom degree of G
    rho = staircase(6)
    for mu in subpartitions(rho):
        shape = SkewShape(rho, mu)
        d = shape.size()
        assert tb.count_fillings(shape, tb.SSYT, (1,) * d) == aitken(rho, mu)
        p = TruncationProfile.for_degree(d + 1)
        s = schur(shape, p)
        g = dual_g(shape, p)
        assert g.homogeneous_part(d).coeffs == s.coeffs
        assert all(sum(k) <= d for k in g.coeffs)
        G = big_G(shape, p)
        assert G.homogeneous_part(d).coeffs == s.coeffs
        assert all(sum(k) >= d for k in G.coeffs)


@pytest.mark.slow
@pytest.mark.parametrize("kind,extra", [("g", None), ("G", 0), ("G", 1), ("G", 3)])
def test_staircase_identities_at_n7(kind, extra):
    # g(rho_7/mu) == g(rho_7/mu') at full degree and G(rho_7/mu) ==
    # G(rho_7/mu') at |rho_7/mu| + extra, for all 1,430 mu, past the
    # suites' cap; a few seconds each on 2 vCPUs
    rho = staircase(7)
    full = TruncationProfile.for_degree(sum(rho))
    mus = subpartitions(rho)
    assert len(mus) == 1430
    try:
        for mu in mus:
            pair = (SkewShape(rho, mu), SkewShape(rho, conjugate(mu)))
            if kind == "g":
                lhs, rhs = (dual_g(s, full) for s in pair)
            else:
                p = TruncationProfile.for_degree(pair[0].size() + extra)
                lhs, rhs = (big_G(s, p) for s in pair)
            assert lhs.coeffs == rhs.coeffs, mu
    finally:
        gr._dual_g_cached.cache_clear()
        gr._big_G_cached.cache_clear()
        tb._chain_cache.pop(rho, None)


def test_big_G_double_examples():
    rho = staircase(3)
    p = TruncationProfile(8)
    for k in (1, 2, 3):
        lhs = big_G_double(rho, (k,), p)
        rhs = big_G(SkewShape(rho, (k,)), p) - big_G(SkewShape(rho, (k - 1,)), p)
        assert lhs.coeffs == rhs.coeffs
    assert big_G_double(rho, EMPTY, p).coeffs == big_G(straight(rho), p).coeffs
    with pytest.raises(ValueError):
        big_G_double((2, 1), (2, 2), p)


def test_big_G_double_sums_to_skew():
    p = TruncationProfile(6)
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


def _pieri_rows(lam, nu):
    """The number of nonempty rows of lam/nu when it is a horizontal strip
    (no column holds two cells), else None."""
    nu = nu + (0,) * (len(lam) - len(nu))
    if any(lam[i + 1] > nu[i] for i in range(len(lam) - 1)):
        return None
    return sum(1 for a, b in zip(lam, nu) if a > b)


def test_lr_coeff_matches_lenart_pieri_rule():
    # Lenart's K-Pieri rule (Ann. Comb. 4, 2000): G_nu G_(k) is the sum of
    # (-1)^(|lam/nu| - k) C(r - 1, |lam/nu| - k) G_lam over the lam for
    # which lam/nu is a horizontal strip over r rows; G_(1^k) follows it
    # over columns, through the conjugates
    checks = 0
    for lam in all_partitions_up_to(8):
        for nu in subpartitions(lam):
            m = sum(lam) - sum(nu)
            for k in range(1, 4):
                for mu, rows in (((k,), _pieri_rows(lam, nu)),
                                 ((1,) * k, _pieri_rows(conjugate(lam),
                                                        conjugate(nu)))):
                    want = 0
                    if rows is not None and m >= k:
                        want = comb(rows - 1, m - k)
                    got = lr_coeff(nu, mu, lam)
                    assert (got.value, got.sign_exponent) == (want, m - k), \
                        (nu, mu, lam)
                    checks += 1
    assert checks == 5172


@pytest.mark.slow
def test_lattice_c_cases_at_n7_match_the_closed_form():
    # the c cases of lattice-rules at n=7, past the suite's cap, both
    # sides: a staircase's corners are pairwise separated, so rho/nu is a
    # horizontal strip exactly when it is a vertical and a rook strip, and
    # the K-Pieri rule then reads C(m - 1, m - k) over its m cells, rows
    # and columns alike; about 12 s on 2 vCPUs
    rho = staircase(7)
    pairs = nonzero = 0
    try:
        for nu in subpartitions(rho):
            m = sum(rho) - sum(nu)
            flags = classify_strip(SkewShape(rho, nu))
            assert flags.horizontal == flags.vertical == flags.rook, nu
            for k in range(1, 8):
                want = comb(m - 1, m - k) if flags.horizontal and m >= k else 0
                for mu in ((k,), (1,) * k):
                    got = lr_coeff(nu, mu, rho)
                    assert (got.value, got.sign_exponent) == (want, m - k), \
                        (nu, mu)
                pairs += 1
                nonzero += want > 0
    finally:
        tb._lattice_table.cache_clear()
    assert pairs == 10010 and nonzero


def test_lr_coeff_reports_invalid_inputs_in_order():
    # nu and mu are checked by star_join, then the target
    bad = [(1, 2), (1, 3), (1, 4)]
    for i, culprit in enumerate(bad):
        args = [(1,)] * i + bad[i:]
        with pytest.raises(ValueError, match=re.escape(str(culprit))):
            lr_coeff(*args)
    assert lr_coeff((1,), (1,), [2, 1, 0]) == lr_coeff((1,), (1,), (2, 1))


def test_non_integer_parts_raise_at_the_public_boundary():
    # a float part used to be truncated: (2.9, 1.5) read as (2, 1)
    p = TruncationProfile(3)
    with pytest.raises(TypeError):
        dual_g(SkewShape((2.9, 1.5), ()), p)
    with pytest.raises(TypeError):
        big_G_double((2, 1), (1.0,), p)
    with pytest.raises(TypeError):
        lr_coeff((1,), (1,), (1.5, 0.5))
    with pytest.raises(TypeError):
        alpha(SkewShape((2, 1), (1,)), (1.0, 1))
    with pytest.raises(TypeError):
        tb.count_lattice_fillings(SkewShape((2, 1), (1,)), "11")


def test_alpha_examples():
    shape = SkewShape((2, 1), (1,))
    assert alpha(shape, (2,)).value == 1
    assert alpha(shape, (1, 1)).value == 1
    assert alpha(shape, (2, 1)).value == 1
    assert alpha(shape, (2, 1)).sign_exponent == 1


def test_product_of_single_boxes():
    # G_1 * G_1 = G_2 + G_11 - G_21, checked against the lattice counts
    p = TruncationProfile(4)
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
    p = TruncationProfile(3)
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
    p = TruncationProfile(7)
    for k in range(1, 5):
        exp = expand_in_G(sf.basis_element("e", (k,), p))
        assert exp.coeffs == {(1,) * n: comb(n - 1, k - 1)
                              for n in range(k, 8)}


def test_G_column_as_alternating_e_sum():
    p = TruncationProfile(7)
    for k in range(1, 5):
        lhs = big_G(straight((1,) * k), p)
        rhs = SymFunc.zero(p)
        for n in range(k, 8):
            term = sf.basis_element("e", (n,), p).scale(comb(n - 1, k - 1))
            rhs = rhs + (term if (n - k) % 2 == 0 else -term)
        assert lhs.coeffs == rhs.coeffs


def test_tau_and_tau_bar():
    p = TruncationProfile(5)
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
    p = TruncationProfile(6)
    for k in (1, 2, 3):
        exp = tau(expand_in_G(sf.basis_element("e", (k,), p)))
        assert exp.coeffs == {(n,): comb(n - 1, k - 1) for n in range(k, 7)}


def test_tau_commutes_with_truncation():
    # conjugation preserves degree, so dropping high keys before or after
    # conjugating gives the same expansion
    p6 = TruncationProfile(6)
    p4 = TruncationProfile(4)
    exp = expand_in_G(sf.basis_element("e", (2,), p6))
    cut_then_tau = tau(BasisExpansion("G", dict(exp.coeffs), p4))
    tau_then_cut = BasisExpansion("G", dict(tau(exp).coeffs), p4)
    assert cut_then_tau.coeffs == tau_then_cut.coeffs
    # g_32 has degrees 3 to 5, so no cut to degree 4 drops its key
    gexp = expand_in_g(dual_g(straight((3, 2)), TruncationProfile(5)))
    with pytest.raises(ValueError):
        BasisExpansion("g", dict(gexp.coeffs), p4)


def test_skew_by_identity_element():
    p = TruncationProfile(4)
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


def _splits_by_combinations(lam):
    """Every (gamma, beta) from choosing a set of positions of lam's parts,
    each distinct split once."""
    idx = range(len(lam))
    return {(tuple(lam[i] for i in chosen),
             tuple(lam[i] for i in idx if i not in chosen))
            for r in range(len(lam) + 1) for chosen in combinations(idx, r)}


def _skew_by_splits(f, a):
    """skew_by's sums, out[beta] += fh[gamma] * c over the splits of each
    key of a, keyed by beta itself and with zero sums kept; fh is f's
    h-expansion taken whole at a's profile."""
    fh = sf.m_to_h(expansion_to_symfunc(
        BasisExpansion(f.basis, f.coeffs, a.trunc))).coeffs
    out = {}
    for lam, c in a.coeffs.items():
        for gamma, beta in _splits_by_combinations(lam):
            if gamma in fh:
                out[beta] = out.get(beta, 0) + fh[gamma] * c
    return out


def _skew_uncached(f, a):
    return SymFunc(_skew_by_splits(f, a), a.trunc)


def test_skew_by_h_cache_is_keyed_by_operand_profile():
    p3, p5 = TruncationProfile.for_degree(3), TruncationProfile.for_degree(5)
    small = dual_g(straight((2, 1)), p3)
    large = big_G(straight((2, 1)), p5)
    # (2, 2) is above small's cap, so it drops out there
    f = BasisExpansion("G", {(1,): 1, (2, 2): -2}, p5)
    assert gr._h_expansion("G", (2, 2), p3) == ((), ())
    without = BasisExpansion("G", {(1,): 1}, p5)
    for order in ((small, large), (large, small)):
        gr._h_record.cache_clear()
        for a in order + order:  # fresh, then warm
            got = skew_by(f, a)
            assert got.coeffs == _skew_uncached(f, a).coeffs
            assert got.trunc == a.trunc
        assert skew_by(f, small) == skew_by(without, small)
        assert skew_by(f, large) != skew_by(without, large)


def test_flagged_schur_hand_examples():
    # g_21 = s_21 + s_2; G_1 = s_1 - s_11 + s_111 - ..., cut at degree 3
    assert tb.flagged_schur(tb.RPP, (2, 1), 3) == {(2, 1): 1, (2,): 1}
    assert tb.flagged_schur(tb.SVT, (1,), 3) == {
        (1,): 1, (1, 1): -1, (1, 1, 1): 1}
    assert tb.flagged_schur(tb.SVT, (2, 2), 3) == {}
    with pytest.raises(ValueError):
        tb.flagged_schur(tb.SSYT, (1,), 3)
    # g keys cut below their size: g_22 = s_22 + s_21 + s_2, and
    # g_111 = s_111 + 2 s_11 + s_1 (row 3 holds 1 or 2 over row 2's 1)
    assert tb.flagged_schur(tb.RPP, (2, 1), 2) == {(2,): 1}
    assert tb.flagged_schur(tb.RPP, (2, 1), 1) == {}
    assert tb.flagged_schur(tb.RPP, (2, 2), 3) == {(2, 1): 1, (2,): 1}
    assert tb.flagged_schur(tb.RPP, (1, 1, 1), 2) == {(1, 1): 2, (1,): 1}
    assert tb.flagged_schur(tb.RPP, (1, 1, 1), 0) == {}


# Every key of at most 8 cells.
KEYS_8 = [lam for d in range(9) for lam in partitions_of(d)]


@pytest.mark.parametrize("kind", (tb.SVT, tb.RPP))
def test_flagged_schur_at_a_cap_is_the_cut_of_a_larger_cap(kind):
    # caps below and above |key|: the G walk stops each state at the cap,
    # the g walk filters its states at the end
    top = 13
    for lam in KEYS_8:
        full = tb.flagged_schur(kind, lam, top)
        assert all(sum(nu) <= top for nu in full)
        for cap in range(top):
            assert tb.flagged_schur(kind, lam, cap) == {
                nu: c for nu, c in full.items() if sum(nu) <= cap}, (lam, cap)


def _clear_library_caches():
    # every memo a benchmark pass empties to start cold: the functools
    # caches and the module dicts named *_cache of the library
    for mod in (gr, sf, tb):
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and attr.endswith("_cache"):
                value.clear()


_RECORD_CAPS = range(14)


@pytest.fixture(scope="module")
def g_cap_oracles():
    # the chain-table oracles of every G key of at most 8 cells at every
    # cap, each computed at that cap alone
    out = {}
    for lam in KEYS_8:
        for cap in _RECORD_CAPS:
            p = TruncationProfile(cap)
            h = sf.m_to_h(expansion_to_symfunc(
                BasisExpansion("G", {lam: 1}, p))).coeffs
            out[lam, cap] = (sf.m_to_schur(big_G(straight(lam), p)).coeffs,
                             (tuple(h), tuple(h.values())))
    return out


@pytest.mark.parametrize("order", ("ascending", "descending", "shuffled"))
def test_one_G_record_serves_every_cap_in_any_order(order, g_cap_oracles):
    # each key's record is extended in place to the largest cap read so
    # far; a smaller cap reads its prefix, which must be the expansion
    # at that cap, term for term and in order
    rng = random.Random(f"record:{order}")
    _clear_library_caches()
    for lam in KEYS_8:
        caps = list(_RECORD_CAPS)
        if order == "descending":
            caps.reverse()
        elif order == "shuffled":
            rng.shuffle(caps)
        for cap in caps:
            schur_want, h_want = g_cap_oracles[lam, cap]
            assert tb.flagged_schur(tb.SVT, lam, cap) == schur_want, (lam, cap)
            assert gr._h_expansion("G", lam, TruncationProfile(cap)) == \
                h_want, (lam, cap)
    # one record a key, never one a cap
    assert gr._h_record.cache_info().currsize == len(KEYS_8)


def test_h_records_are_emptied_with_the_library_caches():
    # the benchmark's cold passes empty functools caches and module dicts
    # named *_cache, so the record must be one of those
    gr._h_expansion("G", (2, 1), TruncationProfile(5))
    assert gr._h_record.cache_info().currsize > 0
    _clear_library_caches()
    assert gr._h_record.cache_info().currsize == 0


# Straight shapes of at most 7 cells, largest first: hypothesis favours
# the first entries.
STRAIGHT_7 = sorted((lam for d in range(8) for lam in partitions_of(d)),
                    key=lambda lam: (-sum(lam), lam))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(STRAIGHT_7), st.integers(min_value=0, max_value=3))
def test_flagged_schur_matches_the_chain_tables(lam, extra):
    p = TruncationProfile.for_degree(sum(lam) + extra)
    G = sf.m_to_schur(big_G(straight(lam), p))
    g = sf.m_to_schur(dual_g(straight(lam), p))
    assert tb.flagged_schur(tb.SVT, lam, p.max_degree) == G.coeffs
    assert tb.flagged_schur(tb.RPP, lam, p.max_degree) == g.coeffs
    for basis in sf.BASES:
        for exp in (BasisExpansion(basis, {lam: 1}, p),
                    BasisExpansion(basis, {lam: 2, EMPTY: -1}, p)):
            # the Kostka peel of the monomial realization is the oracle of
            # the flagged walk (g, G) and of the column scan (m, e, h)
            mono = expansion_to_symfunc(exp)
            want = sf.m_to_schur(mono).coeffs
            assert list(to_schur_expansion(exp).coeffs.items()) == \
                list(want.items())
        # m_to_h of the monomial realization, the route _h_expansion
        # replaced, is the oracle of its one route through the Schur basis
        h = sf.m_to_h(expansion_to_symfunc(
            BasisExpansion(basis, {lam: 1}, p))).coeffs
        assert gr._h_expansion(basis, lam, p) == (tuple(h), tuple(h.values()))


def test_skew_by_flagged_keys_builds_no_chain_table(monkeypatch):
    # the G operator keys of skew-g once built 217 signed svt tables at
    # n = 4, 175 of them replaced by larger ones; now only the rpp tables
    # of the g operands are built
    builds = {}
    backward = tb._ChainTables._backward

    def counted(self, kind, root, extra):
        builds[kind] = builds.get(kind, 0) + 1
        return backward(self, kind, root, extra)

    monkeypatch.setattr(tb._ChainTables, "_backward", counted)
    tb._chain_cache.clear()
    gr._h_record.cache_clear()
    gr._dual_g_cached.cache_clear()
    p = TruncationProfile(9)
    for lam in all_partitions_up_to(5):
        for basis in "sgG":
            gr._h_expansion(basis, lam, p)
    assert builds == {}
    assert verify_hopf(4, include=("skew-g",)).passed
    assert tb.SVT not in builds and builds[tb.RPP] > 0


def test_adjunction_small():
    p = TruncationProfile(5)
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
    p = TruncationProfile(4)
    parts = list(all_partitions_up_to(4))
    for lam in parts:
        Gexp = sf.m_to_schur(big_G(straight(lam), p))
        for mu in parts:
            gexp = sf.m_to_schur(dual_g(straight(mu), p))
            assert sf.hall_inner(Gexp, gexp) == (1 if lam == mu else 0)


def test_comultiplication_of_g():
    for lam in all_partitions_up_to(4):
        p = TruncationProfile.for_degree(max(sum(lam), 1))
        lhs = sf.split_alphabets(dual_g(straight(lam), p))
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
        lhs = sf.split_alphabets(big_G(straight(rho), p))
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
    p = TruncationProfile(5)
    exp = BasisExpansion("g", {(2, 1): 2, (1,): -1}, p)
    f = expansion_to_symfunc(exp)
    assert expand_in_g(f).coeffs == exp.coeffs
    sexp = to_schur_expansion(BasisExpansion("h", {(2,): 1}, p))
    assert sexp.coeffs == {(2,): 1}


def test_g_keys_above_the_cap_raise():
    # g_21 has terms of degree 2, so no truncation at cap 2 drops it: by
    # either route it raises, as dual_g does
    p2, p3 = TruncationProfile(2), TruncationProfile(3)
    assert dual_g(straight((2, 1)), p3).homogeneous_part(2).coeffs == {
        (2,): 1, (1, 1): 1}
    a = dual_g(straight((2,)), p2)
    g21 = BasisExpansion("g", {(2, 1): 1}, p3)
    with pytest.raises(ValueError):
        dual_g(straight((2, 1)), p2)
    with pytest.raises(ValueError):
        BasisExpansion("g", g21.coeffs, p2)
    with pytest.raises(ValueError):
        skew_by(g21, a)
    # G_21 starts at degree 3, so the cap drops it
    G21 = BasisExpansion("G", {(2, 1): 1}, p3)
    assert expansion_to_symfunc(BasisExpansion("G", G21.coeffs, p2)).is_zero()
    assert skew_by(G21, a).is_zero()


@pytest.mark.parametrize("expand", [expand_in_g, expand_in_G])
def test_peel_raises_when_a_round_clears_nothing(monkeypatch, expand):
    # basis elements realized as zero never clear the degree peeled
    monkeypatch.setattr(gr, "expansion_to_symfunc",
                        lambda exp: SymFunc.zero(exp.trunc))
    with pytest.raises(RuntimeError):
        expand(dual_g(straight((2, 1)), TruncationProfile(3)))


def test_stembridge_factorization_example():
    # rho_3 minus a full top row factors into disconnected components
    p = TruncationProfile(4)
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
    assert big_G_double(outer, mu, p).coeffs == slow_rook_strip_sum(outer, mu, p)


def slow_rook_strip_sum(outer, mu, p):
    want = SymFunc.zero(p)
    for sigma in subpartitions(mu):
        if is_rook_strip(mu, sigma):
            term = big_G(SkewShape(outer, sigma), p)
            want = want + (-term if (sum(mu) - sum(sigma)) % 2 else term)
    return want.coeffs


def test_big_G_double_is_cached_once_per_input(monkeypatch):
    # double-sum reads G(rho//mu) once per mu, and double-conj reads mu and
    # mu' again: each distinct input misses once
    cached = gr._big_G_double_cached
    cached.cache_clear()
    seen = []

    def spy(outer, mu, trunc):
        seen.append((outer, mu, trunc))
        return cached(outer, mu, trunc)

    with monkeypatch.context() as m:
        m.setattr(gr, "_big_G_double_cached", spy)
        report = verify_hopf(3, include=("double-sum", "double-conj"))
    assert report.passed
    distinct = set(seen)
    assert len(distinct) == len(subpartitions(staircase(3)))
    info = cached.cache_info()
    assert (info.misses, info.hits) == (len(distinct), len(seen) - len(distinct))
    for outer, mu, trunc in distinct:
        assert cached(outer, mu, trunc).coeffs == slow_rook_strip_sum(
            outer, mu, trunc)
    # a module-level functools.cache: perfbench's clear_caches, which
    # starts every timed pass cold, finds it and empties it
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import cases
    cases.clear_caches()
    assert cached.cache_info().currsize == 0


# Randomized oracle for skew_by: the Hall adjunction
# <s_nu, skew_by(f, a)> = <f s_nu, a>, with the dense product, the Kostka
# peel and the Hall pairing as the slow side.  f is one term in one of five
# bases, keyed by a partition of at most one cell above a's degree cap; such
# a key realizes to zero at a's profile, except in the g basis, where it
# raises (g_lam has degrees below |lam|).  In some examples f has a second
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
    if basis == "g" and top > p.max_degree:
        with pytest.raises(ValueError):
            BasisExpansion(basis, terms, p)
        with pytest.raises(ValueError):
            skew_by(f, a)
        return
    fm = expansion_to_symfunc(BasisExpansion(basis, terms, p))
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


_KEYS_6 = list(all_partitions_up_to(6))
P6 = TruncationProfile(6)


# skew_by skips the second clean of the contraction's sums: its result must
# be what cleaning would give, key for key and in the same order.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(sf.BASES),
       st.dictionaries(st.sampled_from(_KEYS_6), st.sampled_from(_COEFFS),
                       min_size=1, max_size=3),
       st.one_of(
           st.dictionaries(st.sampled_from(_KEYS_6), st.sampled_from(_COEFFS),
                           min_size=1, max_size=6).map(lambda d: SymFunc(d, P6)),
           st.tuples(st.sampled_from(SHAPES_5), st.sampled_from(sorted(
               _OPERANDS))).map(lambda t: _OPERANDS[t[1]](t[0], P6))))
def test_skew_by_result_is_already_clean(basis, f_terms, a):
    out = skew_by(BasisExpansion(basis, f_terms, P6), a)
    clean = SymFunc(dict(out.coeffs), out.trunc)
    assert list(out.coeffs.items()) == list(clean.coeffs.items())
    assert all(type(k) is tuple for k in out.coeffs)
    assert out.trunc == a.trunc


# Randomized oracle for skew_by's indexed pairing: the sums taken straight
# from the splits of a's keys.  Operands have several keys of mixed degree,
# f several keys in any basis; the explicit example cancels: h_1 - h_2
# skews both m_21 and m_11 to m_1, with opposite signs.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(sf.BASES),
       st.dictionaries(st.sampled_from(_KEYS_6), st.sampled_from(_COEFFS),
                       min_size=1, max_size=3),
       st.dictionaries(st.sampled_from(_KEYS_6), st.sampled_from(_COEFFS),
                       min_size=1, max_size=6))
@example("h", {(1,): 1, (2,): -1}, {(2, 1): 1, (1, 1): 1})
def test_skew_by_matches_splits_of_each_key(basis, f_terms, a_terms):
    f = BasisExpansion(basis, f_terms, P6)
    a = SymFunc(a_terms, P6)
    want = _skew_by_splits(f, a)
    got = skew_by(f, a)
    assert got.trunc == P6
    assert got.coeffs == {beta: c for beta, c in want.items() if c}
    assert 0 not in got.coeffs.values()
    if basis == "h" and f_terms == {(1,): 1, (2,): -1}:
        assert want[(1,)] == 0 and (1,) not in got.coeffs
