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
the operand's coproduct (``SymFunc.coproduct``), reading only the splits
whose left factor is a key of that h-expansion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import tableaux
from .shapes import (
    EMPTY,
    Partition,
    SkewShape,
    classify_strip,
    conjugate,
    contains,
    partition,
    star_join,
    subpartitions,
)
from .symfunc import (
    BasisExpansion,
    SymFunc,
    TruncationProfile,
    _kostka_row,
    basis_element,
    m_to_h,
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
    return SymFunc(dict(_kostka_row(shape.outer, shape.inner)), trunc)


@functools.cache
def _dual_g_cached(outer: Partition, inner: Partition,
                   trunc: TruncationProfile) -> SymFunc:
    shape = SkewShape(outer, inner)
    counts = tableaux.content_counts(shape, tableaux.RPP,
                                     num_vars=trunc.num_vars)
    return SymFunc(dict(counts), trunc)


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
    shape = SkewShape(outer, inner)
    counts = tableaux.signed_svt_counts(shape, num_vars=trunc.num_vars,
                                        max_total_size=trunc.max_degree)
    return SymFunc(dict(counts), trunc)


def big_G(shape: SkewShape, trunc: TruncationProfile) -> SymFunc:
    """Skew stable Grothendieck polynomial G_{outer/inner}, truncated."""
    return _big_G_cached(shape.outer, shape.inner, trunc)


def big_G_double(outer: Partition, mu: Partition,
                 trunc: TruncationProfile) -> SymFunc:
    """Alternating rook-strip sum G_{outer//mu}.

    Sums (-1)^{|mu/sigma|} G_{outer/sigma} over the sigma inside mu for
    which mu/sigma is a rook strip.
    """
    outer = partition(outer)
    mu = partition(mu)
    if not contains(outer, mu):
        raise ValueError(f"{mu} is not contained in {outer}")
    coeffs: dict[Partition, int] = {}
    for sigma in subpartitions(mu):
        if not classify_strip(SkewShape(mu, sigma)).rook:
            continue
        sign = -1 if (sum(mu) - sum(sigma)) % 2 else 1
        for k, c in big_G(SkewShape(outer, sigma), trunc).coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + sign * c
    return SymFunc(coeffs, trunc)


def lr_coeff(nu: Partition, mu: Partition, target: Partition) -> SignedCount:
    """Littlewood-Richardson count for the G-basis product expansion.

    Counts set-valued tableaux of the corner-joined shape nu * mu whose
    reverse reading word is a lattice word with content ``target``; the
    sign exponent is |target| - |nu| - |mu|.
    """
    nu = partition(nu)
    mu = partition(mu)
    target = partition(target)
    value = tableaux.count_lattice_fillings(star_join(nu, mu), target)
    return SignedCount(value, sum(target) - sum(nu) - sum(mu))


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
    only degrees further in, until nothing is left.
    """
    out: dict[Partition, int] = {}
    work = f
    while not work.is_zero():
        s_exp = m_to_schur(work.homogeneous_part(end(work.degrees())))
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


def expansion_to_symfunc(exp: BasisExpansion,
                         trunc: TruncationProfile | None = None) -> SymFunc:
    """Realize a basis expansion in monomial coordinates.

    Keys whose degree exceeds the target profile are dropped; for the G
    basis the realization is the usual degree-capped truncation.
    """
    if trunc is None:
        trunc = exp.trunc
    total: dict[Partition, int] = {}
    for lam, c in exp.coeffs.items():
        if sum(lam) > trunc.max_degree:
            continue
        if exp.basis == "m":
            term = SymFunc({lam: 1}, trunc)
        elif exp.basis == "s":
            term = schur_to_m(lam, trunc)
        elif exp.basis in ("e", "h"):
            term = basis_element(exp.basis, lam, trunc)
        elif exp.basis == "g":
            term = dual_g(SkewShape(lam, EMPTY), trunc)
        else:
            term = big_G(SkewShape(lam, EMPTY), trunc)
        for k, v in term.coeffs.items():
            total[k] = total.get(k, 0) + c * v
    return SymFunc(total, trunc)


def to_schur_expansion(exp: BasisExpansion,
                       trunc: TruncationProfile | None = None) -> BasisExpansion:
    """Convert any basis expansion to the Schur basis, degree by degree."""
    if exp.basis == "s" and (trunc is None or trunc == exp.trunc):
        return exp
    return m_to_schur(expansion_to_symfunc(exp, trunc))


@functools.cache
def _h_expansion(basis: str, key: Partition, trunc: TruncationProfile
                 ) -> tuple[tuple[Partition, int], ...]:
    """The h-expansion of the basis element b_key realized at ``trunc``;
    empty when key does not fit the profile."""
    term = expansion_to_symfunc(BasisExpansion(basis, {key: 1}, trunc))
    return tuple(m_to_h(term).coeffs.items())


def skew_by(f: BasisExpansion, a: SymFunc) -> SymFunc:
    """Skewing operator: the Hall adjoint of multiplication by f.

    Skewing by f is (<f, .> (x) id) applied to the coproduct of a.  The h
    and m bases are dual under the Hall inner product, so writing
    f = sum_gamma c_gamma h_gamma gives the coefficient of m_beta in the
    result as sum_gamma c_gamma [m_{gamma u beta}] a: the h-expansion fh
    pairs against the operand's coproduct, reading only the gammas fh
    has.  fh sums one cached h-expansion per key of f, realized at a's
    profile, so a G-basis f is truncated there and keys above the cap
    drop out.  Satisfies the adjunction <g, skew_by(f, a)> = <f g, a>.
    """
    fh: dict[Partition, int] = {}
    for key, c in f.coeffs.items():
        for gamma, k in _h_expansion(f.basis, key, a.trunc):
            fh[gamma] = fh.get(gamma, 0) + c * k
    coproduct = a.coproduct
    out: dict[Partition, int] = {}
    for gamma, k in fh.items():
        for beta, c in coproduct.get(gamma, ()):
            out[beta] = out.get(beta, 0) + k * c
    return SymFunc(out, a.trunc)
