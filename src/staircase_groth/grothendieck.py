"""Skew Schur, dual stable Grothendieck, and stable Grothendieck polynomials.

The three constructors share one convention: a polynomial is the content
generating function of a tableau family over the shape, expressed in the
monomial basis under a truncation profile.

* ``schur``: semistandard tableaux; homogeneous of degree |shape|.  Its
  table is the Schur cache of ``symfunc`` (the skew Kostka rows), which
  ``schur_to_m`` and ``m_to_schur`` read too.
* ``dual_g``: reverse plane partitions, weighted per column; the top
  degree part equals the Schur polynomial.
* ``big_G``: set-valued tableaux with sign (-1)^(|T| - |shape|); the
  bottom degree part equals the Schur polynomial and degrees above the
  profile cap are discarded.

On top of the constructors sit the signed lattice counts expanding
products and skews in the G basis, the unitriangular expansions into the
g and G bases, the conjugation involutions on those bases, and the
skewing operator (the Hall adjoint of multiplication), computed by the
duality of the h and m bases: the operator's h-expansion pairs against
the operand's coproduct (``SymFunc.coproduct``), summing into a list
indexed by its numbered right factors.  The coproduct is a split table
filled on read: the splits of a left factor are derived from those of
its prefix the first time some h-expansion names it, so the left factors
that no operator reads are never built.

A straight g or G key reaches the Schur basis, and from there its
h-expansion, by a flagged rule with no chain table
(``tableaux.flagged_schur``):

* G_lam = sum over nu ⊇ lam of (-1)^|nu/lam| a_nu s_nu (Lenart, Ann.
  Comb. 4 (2000), Thm 2.2), where a_nu counts the fillings of nu/lam
  strictly increasing along rows and columns;
* g_lam = sum over nu ⊆ lam of f_nu s_nu (Lam-Pylyavskyy, IMRN 2007),
  where f_nu counts the semistandard fillings of lam/nu;

in both, the entries in row r lie in 1..r - 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import tableaux
from .shapes import (
    EMPTY,
    Partition,
    SkewShape,
    conjugate,
    contains,
    graded_lex_key,
    partition,
    rook_strip_inners,
    star_join,
)
from .symfunc import (
    BasisExpansion,
    SymFunc,
    TruncationProfile,
    _kostka_row,
    _pair_with_m,
    _schur_by_columns,
    basis_element,
    m_to_schur,
    schur_to_m,
)


@dataclass(frozen=True)
class SignedCount:
    """Unsigned tableau count plus the exponent of its downstream sign.

    Identities apply the sign explicitly as (-1)**sign_exponent so the
    counting stays sign-free.
    """

    value: int
    sign_exponent: int

    @property
    def signed(self) -> int:
        return self.value if self.sign_exponent % 2 == 0 else -self.value


def schur(shape: SkewShape, trunc: TruncationProfile) -> SymFunc:
    """Skew Schur polynomial s_{outer/inner}."""
    if shape.size() > trunc.max_degree:
        raise ValueError(
            f"degree overflow: |{shape}| = {shape.size()} exceeds "
            f"max_degree {trunc.max_degree}")
    # already clean: partition keys of size |shape| <= the cap, each a
    # positive count
    return SymFunc._from_clean(dict(_kostka_row(shape.outer, shape.inner)),
                               trunc)


@functools.cache
def _dual_g_cached(outer: Partition, inner: Partition,
                   trunc: TruncationProfile) -> SymFunc:
    # already clean: partition keys of size at most |outer/inner|, which
    # dual_g checks against the cap, each a positive count
    return SymFunc._from_clean(tableaux.content_counts(
        SkewShape(outer, inner), tableaux.RPP), trunc)


def dual_g(shape: SkewShape, trunc: TruncationProfile) -> SymFunc:
    """Skew dual stable Grothendieck polynomial g_{outer/inner}."""
    if shape.size() > trunc.max_degree:
        raise ValueError(
            f"profile cannot hold the top degree: |{shape}| = {shape.size()} "
            f"exceeds max_degree {trunc.max_degree}")
    return _dual_g_cached(shape.outer, shape.inner, trunc)


@functools.cache
def _big_G_cached(outer: Partition, inner: Partition,
                  trunc: TruncationProfile) -> SymFunc:
    # already clean: partition keys cut to the cap, and no zero, as every
    # filling of one content has the same sign
    return SymFunc._from_clean(tableaux.signed_svt_counts(
        SkewShape(outer, inner), max_total_size=trunc.max_degree), trunc)


def big_G(shape: SkewShape, trunc: TruncationProfile) -> SymFunc:
    """Skew stable Grothendieck polynomial G_{outer/inner}, truncated."""
    return _big_G_cached(shape.outer, shape.inner, trunc)


def big_G_double(outer: Partition, mu: Partition,
                 trunc: TruncationProfile) -> SymFunc:
    """Alternating rook-strip sum G_{outer//mu}.

    Sums (-1)^{|mu/sigma|} G_{outer/sigma} over the sigma inside mu for
    which mu/sigma is a rook strip.  Those are exactly the sets of corners
    of mu (``shapes.rook_strip_inners``), so the sum runs over the
    2^{#corners} corner subsets, not over every sigma inside mu.
    """
    outer = partition(outer)
    mu = partition(mu)
    if not contains(outer, mu):
        raise ValueError(f"{mu} is not contained in {outer}")
    return _big_G_double_cached(outer, mu, trunc)


@functools.cache
def _big_G_double_cached(outer: Partition, mu: Partition,
                         trunc: TruncationProfile) -> SymFunc:
    coeffs: dict[Partition, int] = {}
    for sigma, cells in rook_strip_inners(mu):
        sign = -1 if cells % 2 else 1
        for k, c in big_G(SkewShape(outer, sigma), trunc).coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + sign * c
    return SymFunc(coeffs, trunc)


def lr_coeff(nu: Partition, mu: Partition, target: Partition) -> SignedCount:
    """Littlewood-Richardson count for the G-basis product expansion.

    Counts set-valued tableaux of the corner-joined shape nu * mu whose
    reverse reading word is a lattice word with content ``target``; the
    sign exponent is |target| - |nu| - |mu|.
    """
    shape = star_join(nu, mu)
    target = partition(target)
    value = tableaux.count_lattice_fillings(shape, target)
    return SignedCount(value, sum(target) - shape.size())


def alpha(shape: SkewShape, content: Partition) -> SignedCount:
    """Lattice count expanding a skew G polynomial in straight G's.

    Read from the cached lattice sweep over every content of size
    ``|content|`` (``tableaux._lattice_table`` with no content), so the
    contents of one shape and size share a single search.
    """
    content = partition(content)
    value = len(tableaux._lattice_table(shape, sum(content), None)
                .get(content, ()))
    return SignedCount(value, sum(content) - shape.size())


def _peel(f: SymFunc, basis: str, end) -> BasisExpansion:
    """Expansion of f in a basis whose element b_lam has s_lam as its
    homogeneous part at the ``end`` (max or min) of its degrees.

    Reads the Schur coefficients of f's part at that end and subtracts
    those multiples of the b_lam, which clears that degree and leaves
    only degrees further in, until nothing is left.  A round that leaves
    its degree, or one further out, raises: the basis elements are wrong,
    and peeling would not end.
    """
    out: dict[Partition, int] = {}
    work = f
    last = None
    while not work.is_zero():
        d = end(work.degrees())
        if last is not None and end(d, last) == d:
            raise RuntimeError(
                f"peeling degree {last} in the {basis} basis left degree {d}")
        last = d
        s_exp = m_to_schur(work.homogeneous_part(d))
        for lam, c in s_exp.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        work = work - expansion_to_symfunc(
            BasisExpansion(basis, s_exp.coeffs, f.trunc))
    return BasisExpansion(basis, out, f.trunc)


def expand_in_g(f: SymFunc) -> BasisExpansion:
    """Expansion of f in the dual stable Grothendieck basis.

    Peels from the top degree down: the top homogeneous part of g_lam is
    s_lam.
    """
    return _peel(f, "g", max)


def expand_in_G(f: SymFunc) -> BasisExpansion:
    """Expansion of f in the stable Grothendieck basis, up to the cap.

    Peels from the bottom degree up: the bottom part of G_lam is s_lam.
    The result represents f modulo degrees above the profile cap.
    """
    return _peel(f, "G", min)


def _conjugate_indices(f: BasisExpansion, basis: str) -> BasisExpansion:
    if f.basis != basis:
        raise ValueError(f"expected a {basis}-basis expansion, got {f.basis}")
    return BasisExpansion(basis, {conjugate(k): c for k, c in f.coeffs.items()},
                          f.trunc)


def tau(f: BasisExpansion) -> BasisExpansion:
    """Conjugate every index of a G-basis expansion: G_lam -> G_lam'."""
    return _conjugate_indices(f, "G")


def tau_bar(f: BasisExpansion) -> BasisExpansion:
    """Conjugate every index of a g-basis expansion: g_lam -> g_lam'."""
    return _conjugate_indices(f, "g")


def expansion_to_symfunc(exp: BasisExpansion) -> SymFunc:
    """Realize a basis expansion in monomial coordinates at its profile,
    where every key fits (``BasisExpansion`` drops or refuses the rest)."""
    trunc = exp.trunc
    total: dict[Partition, int] = {}
    for lam, c in exp.coeffs.items():
        if exp.basis == "s":
            term = schur_to_m(lam, trunc)
        elif exp.basis in ("m", "e", "h"):
            term = basis_element(exp.basis, lam, trunc)
        elif exp.basis == "g":
            term = dual_g(SkewShape(lam, EMPTY), trunc)
        else:
            term = big_G(SkewShape(lam, EMPTY), trunc)
        for k, v in term.coeffs.items():
            total[k] = total.get(k, 0) + c * v
    return SymFunc(total, trunc)


_FLAGGED = {"G": tableaux.SVT, "g": tableaux.RPP}


def to_schur_expansion(exp: BasisExpansion) -> BasisExpansion:
    """Convert any basis expansion to the Schur basis, in graded lex order.

    An s key is its own expansion, and g and G keys take their flagged
    Schur expansions (``tableaux.flagged_schur``; Lam-Pylyavskyy and
    Lenart), so no chain table is built.  m, e and h keys are realized
    in monomials and read off the inverse Kostka columns
    (``symfunc._schur_by_columns``).
    """
    if exp.basis in ("m", "e", "h"):
        return BasisExpansion("s", _schur_by_columns(
            expansion_to_symfunc(exp)), exp.trunc)
    cap = exp.trunc.max_degree
    out: dict[Partition, int] = {}
    for lam, c in exp.coeffs.items():
        terms = {lam: 1} if exp.basis == "s" else tableaux.flagged_schur(
            _FLAGGED[exp.basis], lam, cap)
        for nu, k in terms.items():
            out[nu] = out.get(nu, 0) + c * k
    return BasisExpansion("s", {nu: out[nu] for nu in
                                sorted(out, key=graded_lex_key)}, exp.trunc)


@functools.cache
def _h_expansion(basis: str, key: Partition, trunc: TruncationProfile
                 ) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """The h-expansion of the basis element b_key realized at ``trunc``,
    as parallel tuples (gammas, coeffs); both empty when key does not fit
    the profile (for g, raises).

    Every basis takes one route: the Schur expansion of b_key
    (``to_schur_expansion``) paired with the Jacobi-Trudi columns, so
    s, g and G keys need no monomial step and no chain table.
    """
    exp = BasisExpansion(basis, {key: 1}, trunc)
    coeffs = _pair_with_m(to_schur_expansion(exp).coeffs, "h", trunc).coeffs
    return tuple(coeffs), tuple(coeffs.values())


def skew_by(f: BasisExpansion, a: SymFunc) -> SymFunc:
    """Skewing operator: the Hall adjoint of multiplication by f.

    Skewing by f is (<f, .> (x) id) applied to the coproduct of a.  The h
    and m bases are dual under the Hall inner product, so writing
    f = sum_gamma c_gamma h_gamma gives the coefficient of m_beta in the
    result as sum_gamma c_gamma [m_{gamma u beta}] a.  Each key of f
    pairs its cached h-expansion against the operand's split table
    (``SymFunc.coproduct``), which derives the splits of each gamma there
    on its first read, so only those left factors and their prefixes are
    ever built.  Each key is taken as a ``BasisExpansion`` at a's
    profile: a key above a's cap drops out, except a g key, which raises
    ValueError.  Satisfies the adjunction <g, skew_by(f, a)> = <f g, a>.
    """
    # clean as it stands: the contraction keeps only nonzero sums, and
    # its keys are right factors of a's keys, within a's cap
    return SymFunc._from_clean(a.coproduct.contract(
        (c, _h_expansion(f.basis, key, a.trunc))
        for key, c in f.coeffs.items()), a.trunc)
