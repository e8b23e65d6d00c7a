"""Truncated symmetric-function arithmetic over the integers.

A symmetric function is stored in the monomial basis as a finite map
from partitions to integer coefficients together with a truncation
profile, its degree cap D.  All operations discard degrees above D,
which is the documented meaning of equality between objects that are
infinite series in full generality.  No key of degree at most D has
more than D parts, so the monomial coordinates are those in any D or
more variables, where equality up to degree D is faithful.

Coefficients are exact arbitrary-precision integers.  Every basis change
in scope is unimodular, so no rationals ever appear.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

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
    """Degree cap D: every operation discards the degrees above it."""

    max_degree: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")

    @property
    def num_vars(self) -> int:
        """The variable count reports list, max(D, 1): enough for equality
        up to degree D to be faithful.  No coefficient depends on it."""
        return max(self.max_degree, 1)

    @classmethod
    def for_degree(cls, d: int) -> "TruncationProfile":
        return cls(d)


def _clean(coeffs: dict, trunc: TruncationProfile, basis: str = "m") -> dict:
    """The nonzero coefficients, under the cap rule of ``BasisExpansion``."""
    out = {}
    for lam, c in coeffs.items():
        lam = tuple(lam)
        if c == 0 or sum(lam) > trunc.max_degree:
            if c and basis == "g":
                raise ValueError(
                    f"g key {lam} exceeds max_degree {trunc.max_degree}")
            continue
        out[lam] = c
    return out


class Coproduct(NamedTuple):
    """A ``SymFunc``'s coproduct with its right factors numbered.

    ``splits`` maps each left factor gamma to two parallel tuples
    (js, cs): the i-th split is gamma (x) betas[js[i]] with coefficient
    cs[i].  A reader that accumulates by beta indexes a list by j instead
    of hashing beta, and the splits cost two tuple slots each, not a
    tuple of their own.
    """

    betas: tuple[Partition, ...]
    splits: Mapping[Partition, tuple[tuple[int, ...], tuple[int, ...]]]


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
    def coproduct(self) -> Coproduct:
        """The m-basis coproduct, Delta m_lam = sum over gamma u beta = lam
        of m_gamma (x) m_beta, indexed by the left factor and by an
        integer per right factor: ``betas`` lists each distinct beta once,
        in first-seen order, and ``splits`` maps each gamma to the
        parallel tuples (js, cs), one entry per key lam = gamma u
        betas[j] with coefficient c.  Read-only; built on first use."""
        index: dict[Partition, int] = {}
        out: dict[Partition, tuple[list[int], list[int]]] = {}
        for lam, c in self.coeffs.items():
            for gamma, beta in _multiset_splits(lam):
                js_cs = out.get(gamma)
                if js_cs is None:
                    js_cs = out[gamma] = ([], [])
                js_cs[0].append(index.setdefault(beta, len(index)))
                js_cs[1].append(c)
        return Coproduct(tuple(index), MappingProxyType(
            {g: (tuple(js), tuple(cs)) for g, (js, cs) in out.items()}))

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


def _require_partition(key: Partition) -> None:
    """Raise ValueError unless key is a partition, which no reader may
    take as the multiset of its parts or as its sorted form."""
    if any(v < 1 for v in key) or any(a < b for a, b in zip(key, key[1:])):
        raise ValueError(f"key {key} is not a partition")


@functools.cache
def _m_product(lam: Partition, mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Monomial-basis product m_lam * m_mu as a coefficient table.

    The coefficient of m_nu counts pairs of arrangements of lam and mu
    whose slotwise sum equals nu itself (the weakly decreasing monomial).
    Raises ValueError when lam or mu is not a partition, which would
    otherwise be read as its multiset of parts.
    """
    _require_partition(lam)
    _require_partition(mu)
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
            hn = {mu: 1 for mu in partitions_of(part)}
            out = out * SymFunc(hn, trunc)
        return out
    raise ValueError(f"unknown basis tag {tag!r}; expected m, e, or h")


@functools.cache
def _kostka_row(outer: Partition, inner: Partition
                ) -> tuple[tuple[Partition, int], ...]:
    """Nonzero skew Kostka numbers K_{outer/inner, mu}, the ssyt of shape
    outer/inner with content mu, in graded lex order of mu.

    This is the one cache of Schur tables; straight shapes pass EMPTY.
    The row is homogeneous of degree |outer/inner|, so it is the same
    under every profile that holds the shape and is not keyed by profile.
    """
    return tuple(tableaux.content_counts(SkewShape(outer, inner),
                                         tableaux.SSYT).items())


def schur_to_m(lam: Partition, trunc: TruncationProfile) -> SymFunc:
    """The Schur function s_lam as a monomial-basis expansion."""
    lam = partition(lam)
    if sum(lam) > trunc.max_degree:
        raise ValueError(
            f"degree overflow: |{lam}| exceeds max_degree {trunc.max_degree}")
    return SymFunc(dict(_kostka_row(lam, EMPTY)), trunc)


@dataclass(frozen=True)
class BasisExpansion:
    """Finite integer expansion in a named basis, under a profile.

    A key above the cap is dropped, as m, s, e, h and G elements have no
    degree below |lam|.  A g key there raises ValueError: g_lam starts at
    degree lam_1.
    """

    basis: str
    coeffs: dict  # Partition -> int
    trunc: TruncationProfile

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}; expected one of {BASES}")
        object.__setattr__(self, "coeffs", _clean(self.coeffs, self.trunc, self.basis))


def m_to_schur(f: SymFunc) -> BasisExpansion:
    """Schur expansion of f, solved degree by degree.

    The Kostka system is unitriangular under dominance order, and
    lexicographic order refines dominance, so peeling the lex-largest
    remaining key is integer exact.  Raises ValueError on a key that is
    not a partition.
    """
    out: dict[Partition, int] = {}
    for d in f.degrees():
        sub = {k: c for k, c in f.coeffs.items() if sum(k) == d}
        while sub:
            lam = max(sub)
            _require_partition(lam)
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


def _multiset_splits(lam: Partition) -> list[tuple[Partition, Partition]]:
    """All ways to split the parts of lam into two sub-multisets
    (gamma, beta), each once.

    Built run by run of equal parts: each split so far is extended by
    every way to share the next run, t parts to gamma and the rest to
    beta, t ascending, so earlier (larger) runs vary slowest.  Raises
    ValueError when lam is not a partition.
    """
    splits = [(EMPTY, EMPTY)]
    n = len(lam)
    i = 0
    while i < n:
        v = lam[i]
        j = i + 1
        while j < n and lam[j] == v:
            j += 1
        if v < 1 or (j < n and lam[j] > v):
            raise ValueError(f"key {lam} is not a partition")
        run = lam[i:j]
        shares = [(run[:t], run[t:]) for t in range(j - i + 1)]
        splits = [(a + x, b + y) for a, b in splits for x, y in shares]
        i = j
    return splits


def split_alphabets(f: SymFunc) -> dict:
    """Coefficients of m_alpha(x) m_beta(y) in f(x, y).

    A monomial function splits over two alphabets by distributing its
    parts: m_lam(x, y) = sum over multiset splits alpha ++ beta = lam of
    m_alpha(x) m_beta(y), which is f's coproduct; each beta is read back
    from the coproduct's index as ``betas[j]``.
    """
    betas, splits = f.coproduct
    return {(alpha, betas[j]): c
            for alpha, (js, cs) in splits.items() for j, c in zip(js, cs)}


@functools.cache
def _inverse_kostka_columns(
        d: int) -> Mapping[Partition, tuple[tuple[Partition, int], ...]]:
    """The inverse Kostka numbers c = [s_nu] m_lam of degree d, nonzero
    only: for each nu, the pairs (lam, c), the h-expansion of s_nu, as h
    and m are dual, listed in the order of ``partitions_of``.

    Expanding the Jacobi-Trudi determinant s_nu = det(h_{nu_i - i + j})
    along its last column gives
    s_nu = sum_i (-1)^(l - i) h_{nu_i - i + l} s_{nu^(i)},
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


def _schur_by_columns(f: SymFunc) -> dict[Partition, int]:
    """The Schur coefficients of f, [s_nu] f = sum over the inverse Kostka
    column (lam, c) of nu of f[lam] c, one pass over the columns of each
    degree of f, in ``m_to_schur``'s order: degrees ascending, each degree
    lex-descending.  Raises ValueError on a key that is not a partition.

    ``m_to_schur`` peels instead: one Kostka row per Schur key is cheaper
    than a whole degree's columns when f has few keys of high degree.
    """
    out: dict[Partition, int] = {}
    for d in f.degrees():
        sub = {lam: c for lam, c in f.coeffs.items() if sum(lam) == d}
        cols = _inverse_kostka_columns(d)
        for lam in sub:
            if lam not in cols:
                raise ValueError(f"key {lam} is not a partition")
        for nu, col in cols.items():
            c = sum(sub.get(lam, 0) * k for lam, k in col)
            if c:
                out[nu] = c
    return out


def _pair_with_m(schur: dict, basis: str,
                 trunc: TruncationProfile) -> BasisExpansion:
    """The expansion whose lam coefficient pairs the Schur expansion
    ``schur`` with m_lam, at the profile ``trunc``.

    Each Schur key nu adds its coefficient times the inverse Kostka
    column of nu; every lam reached has the degree of a key of
    ``schur``, so all of them fit a profile that holds those keys.
    Raises ValueError on a key that is not a partition.
    """
    out: dict[Partition, int] = {}
    for nu, c in schur.items():
        col = _inverse_kostka_columns(sum(nu)).get(nu)
        if col is None:
            raise ValueError(f"key {nu} is not a partition")
        for lam, k in col:
            out[lam] = out.get(lam, 0) + k * c
    return BasisExpansion(basis, out, trunc)


def m_to_h(f: SymFunc) -> BasisExpansion:
    """Expansion of f in complete homogeneous functions.

    Uses the duality of {h} with {m}: the h_lam coefficient is the Hall
    pairing of f against m_lam.  Both steps read the one inverse Kostka
    table: its columns give the Schur coefficients of f
    (``_schur_by_columns``), and the column of each Schur key nu then
    gives the h-expansion of s_nu.
    """
    return _pair_with_m(_schur_by_columns(f), "h", f.trunc)


def m_to_e(f: SymFunc) -> BasisExpansion:
    """Expansion of f in elementary symmetric functions.

    Composes the h-expansion with the involution swapping s_lam and its
    conjugate: f = sum c_lam e_lam exactly when omega(f) = sum c_lam h_lam.
    """
    omega = {conjugate(k): c for k, c in _schur_by_columns(f).items()}
    return _pair_with_m(omega, "e", f.trunc)
