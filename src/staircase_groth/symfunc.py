"""Truncated symmetric-function arithmetic over the integers.

A symmetric function is stored in the monomial basis as a finite map
from partitions to integer coefficients together with a truncation
profile (max_degree D, num_vars a).  All operations discard degrees
above D, which is the documented meaning of equality between objects
that are infinite series in full generality.  The profile keeps
a >= D so that equality up to degree D is faithful: distinct symmetric
functions of degree <= D stay distinct in a variables.

Coefficients are exact arbitrary-precision integers.  Every basis change
in scope is unimodular, so no rationals ever appear.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from . import tableaux
from .shapes import (
    EMPTY,
    Partition,
    SkewShape,
    conjugate,
    graded_lex_key,
    partition,
    partitions_of,
)

BASES = ("m", "s", "e", "h", "g", "G")


@dataclass(frozen=True)
class TruncationProfile:
    """Degree cap D and variable count a, with a >= D for faithfulness."""

    max_degree: int
    num_vars: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        if self.num_vars < self.max_degree:
            raise ValueError(
                f"profile needs num_vars >= max_degree, got {self}")

    @classmethod
    def for_degree(cls, d: int) -> "TruncationProfile":
        return cls(d, max(d, 1))


def _clean(coeffs: dict, trunc: TruncationProfile) -> dict:
    out = {}
    for lam, c in coeffs.items():
        lam = tuple(lam)
        if c == 0:
            continue
        if sum(lam) > trunc.max_degree or len(lam) > trunc.num_vars:
            continue
        out[lam] = c
    return out


@dataclass(frozen=True)
class SymFunc:
    """Finite monomial-basis expansion under a truncation profile.

    ``coeffs`` is never written after construction: ``coproduct`` is
    derived from it lazily and cached on the instance.
    """

    coeffs: dict  # Partition -> int
    trunc: TruncationProfile

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs, self.trunc))

    @functools.cached_property
    def coproduct(self
                  ) -> Mapping[Partition, tuple[tuple[Partition, int], ...]]:
        """The m-basis coproduct, Delta m_lam = sum over gamma u beta = lam
        of m_gamma (x) m_beta, indexed by the left factor: each gamma maps
        to the pairs (beta, c), one per key lam = gamma u beta with
        coefficient c.  Read-only; built on first use."""
        out: dict[Partition, list[tuple[Partition, int]]] = {}
        for lam, c in self.coeffs.items():
            for gamma, beta in _multiset_splits(lam):
                out.setdefault(gamma, []).append((beta, c))
        return MappingProxyType({g: tuple(v) for g, v in out.items()})

    @classmethod
    def zero(cls, trunc: TruncationProfile) -> "SymFunc":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: TruncationProfile) -> "SymFunc":
        return cls({EMPTY: 1}, trunc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> list[int]:
        return sorted({sum(k) for k in self.coeffs})

    def homogeneous_part(self, d: int) -> "SymFunc":
        return SymFunc({k: c for k, c in self.coeffs.items() if sum(k) == d},
                       self.trunc)

    def _require_same_profile(self, other: "SymFunc") -> None:
        if self.trunc != other.trunc:
            raise ValueError(
                f"truncation profile mismatch: {self.trunc} vs {other.trunc}")

    def __add__(self, other: "SymFunc") -> "SymFunc":
        self._require_same_profile(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return SymFunc(out, self.trunc)

    def __neg__(self) -> "SymFunc":
        return SymFunc({k: -c for k, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def scale(self, n: int) -> "SymFunc":
        return SymFunc({k: n * c for k, c in self.coeffs.items()}, self.trunc)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented


def _distinct_arrangements(parts: Partition, length: int) -> Iterator[tuple[int, ...]]:
    """Distinct ways to place the parts (padded with zeros) into slots."""
    pool = Counter(parts)
    pool[0] = length - len(parts)

    def rec(slots: int, cur: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            yield cur
            return
        for v in list(pool):
            if pool[v] == 0:
                continue
            pool[v] -= 1
            yield from rec(slots - 1, cur + (v,))
            pool[v] += 1

    yield from rec(length, ())


@functools.cache
def _m_product(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Monomial-basis product m_lam * m_mu as a coefficient table.

    The coefficient of m_nu counts pairs of arrangements of lam and mu
    whose slotwise sum equals nu itself (the weakly decreasing monomial).
    """
    if graded_lex_key(lam) > graded_lex_key(mu):
        lam, mu = mu, lam
    length = len(lam) + len(mu)
    if length == 0:
        return ((EMPTY, 1),)
    out: Counter = Counter()
    betas = list(_distinct_arrangements(mu, length))
    for alpha in _distinct_arrangements(lam, length):
        for beta in betas:
            g = tuple(x + y for x, y in zip(alpha, beta))
            if all(g[i] >= g[i + 1] for i in range(length - 1)):
                p = g
                while p and p[-1] == 0:
                    p = p[:-1]
                out[p] += 1
    return tuple(sorted(out.items(), key=lambda kv: graded_lex_key(kv[0])))


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product in the ring of symmetric functions, truncated to degree D."""
    f._require_same_profile(g)
    cap = f.trunc.max_degree
    out: dict[Partition, int] = {}
    for lam, cf in f.coeffs.items():
        dl = sum(lam)
        for mu, cg in g.coeffs.items():
            if dl + sum(mu) > cap:
                continue
            c = cf * cg
            for nu, k in _m_product(lam, mu):
                out[nu] = out.get(nu, 0) + c * k
    return SymFunc(out, f.trunc)


def basis_element(tag: str, lam: Partition, trunc: TruncationProfile) -> SymFunc:
    """m_lam, e_lam, or h_lam in monomial coordinates."""
    lam = partition(lam)
    if sum(lam) > trunc.max_degree:
        raise ValueError(
            f"degree overflow: |{lam}| exceeds max_degree {trunc.max_degree}")
    if tag == "m":
        return SymFunc({lam: 1}, trunc)
    if tag == "e":
        out = SymFunc.one(trunc)
        for part in lam:
            out = out * SymFunc({(1,) * part: 1}, trunc)
        return out
    if tag == "h":
        out = SymFunc.one(trunc)
        for part in lam:
            hn = {mu: 1 for mu in partitions_of(part, max_length=trunc.num_vars)}
            out = out * SymFunc(hn, trunc)
        return out
    raise ValueError(f"unknown basis tag {tag!r}; expected m, e, or h")


@functools.cache
def _kostka_row(outer: Partition, inner: Partition
                ) -> tuple[tuple[Partition, int], ...]:
    """Nonzero skew Kostka numbers K_{outer/inner, mu}, the ssyt of shape
    outer/inner with content mu, in graded lex order of mu.

    This is the one cache of Schur tables; straight shapes pass EMPTY.
    No content has more parts than the shape has cells, so the row is the
    same under every profile that holds the shape (num_vars >= max_degree
    >= |shape|) and is not keyed by profile.
    """
    shape = SkewShape(outer, inner)
    return tuple(tableaux.content_counts(
        shape, tableaux.SSYT, num_vars=max(shape.size(), 1)).items())


def schur_to_m(lam: Partition, trunc: TruncationProfile) -> SymFunc:
    """The Schur function s_lam as a monomial-basis expansion."""
    lam = partition(lam)
    if sum(lam) > trunc.max_degree:
        raise ValueError(
            f"degree overflow: |{lam}| exceeds max_degree {trunc.max_degree}")
    return SymFunc(dict(_kostka_row(lam, EMPTY)), trunc)


@dataclass(frozen=True)
class BasisExpansion:
    """Finite integer expansion in a named basis, under a profile."""

    basis: str
    coeffs: dict  # Partition -> int
    trunc: TruncationProfile

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}; expected one of {BASES}")
        object.__setattr__(self, "coeffs", _clean(self.coeffs, self.trunc))


def m_to_schur(f: SymFunc) -> BasisExpansion:
    """Schur expansion of f, solved degree by degree.

    The Kostka system is unitriangular under dominance order, and
    lexicographic order refines dominance, so peeling the lex-largest
    remaining key is integer exact.
    """
    out: dict[Partition, int] = {}
    for d in f.degrees():
        sub = {k: c for k, c in f.coeffs.items() if sum(k) == d}
        while sub:
            lam = max(sub)
            c = sub.pop(lam)
            out[lam] = c
            for mu, k in _kostka_row(lam, EMPTY):
                if mu == lam:
                    continue
                v = sub.get(mu, 0) - c * k
                if v:
                    sub[mu] = v
                else:
                    sub.pop(mu, None)
    return BasisExpansion("s", out, f.trunc)


def hall_inner(f: BasisExpansion, g: BasisExpansion) -> int:
    """Hall pairing of two Schur expansions: sum over shared keys.

    Schur functions are orthonormal, so this is the full inner product of
    anything both expansions faithfully represent.
    """
    if f.basis != "s" or g.basis != "s":
        raise ValueError("hall_inner expects Schur-basis expansions")
    if f.trunc != g.trunc:
        raise ValueError("hall_inner expects a common truncation profile")
    if len(f.coeffs) > len(g.coeffs):
        f, g = g, f
    return sum(c * g.coeffs.get(k, 0) for k, c in f.coeffs.items())


def _multiset_splits(lam: Partition) -> Iterator[tuple[Partition, Partition]]:
    """All ways to split the parts of lam into two sub-multisets
    (gamma, beta), each once."""
    items = sorted(Counter(lam).items(), reverse=True)

    def rec(i: int, a: tuple[int, ...], b: tuple[int, ...]
            ) -> Iterator[tuple[Partition, Partition]]:
        if i == len(items):
            yield a, b
            return
        v, mult = items[i]
        for take in range(mult + 1):
            yield from rec(i + 1, a + (v,) * take, b + (v,) * (mult - take))

    yield from rec(0, EMPTY, EMPTY)


def split_alphabets(f: SymFunc, a: int, b: int) -> dict:
    """Coefficients of m_alpha(x) m_beta(y) in f(x_1..x_a, y_1..y_b).

    A monomial function splits over two alphabets by distributing its
    parts: m_lam(x, y) = sum over multiset splits alpha ++ beta = lam of
    m_alpha(x) m_beta(y), which is f's coproduct cut to the lengths.
    """
    return {(alpha, beta): c
            for alpha, pairs in f.coproduct.items() if len(alpha) <= a
            for beta, c in pairs if len(beta) <= b}


@functools.cache
def _inverse_kostka_columns(
        d: int) -> Mapping[Partition, tuple[tuple[Partition, int], ...]]:
    """Inverse Kostka numbers of degree d by column: for each nu of d, the
    pairs (lam, c) with c = [s_nu] m_lam nonzero, lam in the order of
    ``partitions_of(d)``.

    As h and m are dual, column nu is the h-expansion of s_nu.  Expanding
    the Jacobi-Trudi determinant s_nu = det(h_{nu_i - i + j}) along its
    last column gives s_nu = sum_i (-1)^(l - i) h_{nu_i - i + l} s_{nu^(i)},
    nu^(i) = (nu_1, .., nu_{i-1}, nu_{i+1} - 1, .., nu_l - 1) without
    zeros, so each column adds a part to the keys of smaller columns.
    """
    if d == 0:
        return MappingProxyType({EMPTY: ((EMPTY, 1),)})
    order = {lam: i for i, lam in enumerate(partitions_of(d))}
    cols: dict[Partition, tuple[tuple[Partition, int], ...]] = {}
    for nu in order:
        ell = len(nu)
        col: dict[Partition, int] = {}
        for i in range(ell):
            part = nu[i] - i - 1 + ell
            minor = nu[:i] + tuple(v - 1 for v in nu[i + 1:] if v > 1)
            sign = -1 if (ell - i - 1) % 2 else 1
            for kappa, c in _inverse_kostka_columns(d - part)[minor]:
                lam = tuple(sorted(kappa + (part,), reverse=True))
                col[lam] = col.get(lam, 0) + sign * c
        cols[nu] = tuple(sorted(((lam, c) for lam, c in col.items() if c),
                                key=lambda kv: order[kv[0]]))
    return MappingProxyType(cols)


def _pair_with_m(f: SymFunc, schur: dict, basis: str) -> BasisExpansion:
    """The expansion whose lam coefficient pairs the Schur expansion
    ``schur`` of f with m_lam.

    Each Schur key nu adds its coefficient times the inverse Kostka
    column of nu; every lam reached has a degree of f, and all of them
    fit the profile, whose num_vars is at least its max_degree.
    """
    out: dict[Partition, int] = {}
    for nu, c in schur.items():
        for lam, k in _inverse_kostka_columns(sum(nu))[nu]:
            out[lam] = out.get(lam, 0) + k * c
    return BasisExpansion(basis, out, f.trunc)


def m_to_h(f: SymFunc) -> BasisExpansion:
    """Expansion of f in complete homogeneous functions.

    Uses the duality of {h} with {m}: the h_lam coefficient is the Hall
    pairing of f against m_lam, read off the inverse Kostka columns of
    the Schur support of f.
    """
    return _pair_with_m(f, m_to_schur(f).coeffs, "h")


def m_to_e(f: SymFunc) -> BasisExpansion:
    """Expansion of f in elementary symmetric functions.

    Composes the h-expansion with the involution swapping s_lam and its
    conjugate: f = sum c_lam e_lam exactly when omega(f) = sum c_lam h_lam.
    """
    omega = {conjugate(k): c for k, c in m_to_schur(f).coeffs.items()}
    return _pair_with_m(f, omega, "e")
