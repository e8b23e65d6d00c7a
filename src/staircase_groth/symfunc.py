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
from typing import Iterable, Iterator, Mapping

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


class Coproduct:
    """The m-basis coproduct of a ``SymFunc``, Delta m_lam = sum over
    gamma u beta = lam of m_gamma (x) m_beta, as a split table filled on
    read, with its right factors numbered.

    ``self[gamma]`` is two parallel tuples (js, cs): the i-th split is
    gamma (x) betas[js[i]], from the key gamma u betas[js[i]] with
    coefficient cs[i]; both are empty when gamma is in no key.  The entry
    of () holds the keys themselves.  Any other gamma, a partition, is
    derived on its first read from gamma less its smallest part k: each
    right factor there that has a part k, less one k.  So only the gammas
    that are read, and their prefixes, are ever built.

    Each right factor carries a mixed-radix code, the sum of
    base^(part - 1) with base = cap + 1, more than any part's
    multiplicity in a key of degree at most cap: "has a part k" is a
    digit test and removing one k a subtraction.

    ``splits`` is a read-only view of the entries derived so far, with
    () for a gamma in no key, and ``betas`` lists the right factors they
    name, each once, in the order the derivations met them.  Raises
    ValueError when a key is not a partition.
    """

    __slots__ = ("_base", "_betas", "_codes", "_index", "_table")

    def __init__(self, coeffs: Mapping[Partition, int], cap: int):
        for lam in coeffs:
            _require_partition(lam)
        self._base = base = cap + 1
        self._betas = list(coeffs)
        self._codes = [sum(base ** (v - 1) for v in lam) for lam in coeffs]
        self._index = {code: j for j, code in enumerate(self._codes)}
        self._table = {EMPTY: (tuple(range(len(coeffs))),
                               tuple(coeffs.values())) if coeffs else ()}

    @property
    def betas(self) -> tuple[Partition, ...]:
        return tuple(self._betas)

    @property
    def splits(self) -> Mapping[Partition, tuple]:
        return MappingProxyType(self._table)

    def __getitem__(self, gamma: Partition
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        entry = self._table.get(gamma)
        if entry is None:
            entry = self._derive(gamma)
        return entry or ((), ())

    def _derive(self, gamma: Partition) -> tuple:
        """Store and return the entry of gamma, () when gamma is in no
        key, from that of gamma less its smallest part k, derived first
        if need be.  Raises ValueError unless gamma is a partition; each
        prefix checks its own last part."""
        k = gamma[-1]
        if k < 1 or (len(gamma) > 1 and gamma[-2] < k):
            raise ValueError(f"left factor {gamma} is not a partition")
        table = self._table
        prefix = gamma[:-1]
        parent = table.get(prefix)
        if parent is None:
            parent = self._derive(prefix)
        out_js: list[int] = []
        out_cs: list[int] = []
        if parent:
            betas, codes, index = self._betas, self._codes, self._index
            unit = self._base ** (k - 1)
            digit_k = unit * self._base
            for j, c in zip(*parent):
                code = codes[j]
                if code % digit_k >= unit:
                    code -= unit
                    i = index.get(code)
                    if i is None:
                        i = index[code] = len(betas)
                        beta = betas[j]
                        at = beta.index(k)
                        betas.append(beta[:at] + beta[at + 1:])
                        codes.append(code)
                    out_js.append(i)
                    out_cs.append(c)
        entry = table[gamma] = (tuple(out_js), tuple(out_cs)) if out_js else ()
        return entry

    def contract(self, terms: Iterable[tuple[int, tuple[
            tuple[Partition, ...], tuple[int, ...]]]]) -> dict[Partition, int]:
        """(<f, .> (x) id) of the coproduct, for f = sum over terms
        (c, (gammas, ks)) of c times sum_i ks[i] h_{gammas[i]}: h and m
        are dual, so the coefficient of m_beta is the sum of c ks[i]
        times the coefficient of the key gammas[i] u beta.  Sums into
        one list indexed by right factor, extended when a derivation
        adds a new one."""
        table, betas = self._table, self._betas
        out = [0] * len(betas)
        for c, (gammas, ks) in terms:
            for gamma, k in zip(gammas, ks):
                entry = table.get(gamma)
                if entry is None:
                    entry = self._derive(gamma)
                    out += [0] * (len(betas) - len(out))
                if entry:
                    kc = k * c
                    js, cs = entry
                    for j, cj in zip(js, cs):
                        out[j] += kc * cj
        return {betas[j]: c for j, c in enumerate(out) if c}


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
        """The m-basis coproduct as a split table, filled as it is read
        (``Coproduct``).  Raises ValueError when a key is not a
        partition."""
        return Coproduct(self.coeffs, self.trunc.max_degree)

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


def split_alphabets(f: SymFunc) -> dict:
    """Coefficients of m_alpha(x) m_beta(y) in f(x, y).

    A monomial function splits over two alphabets by distributing its
    parts: m_lam(x, y) = sum over multiset splits alpha ++ beta = lam of
    m_alpha(x) m_beta(y), which is f's coproduct.  Every alpha is read
    through the coproduct's table: alpha + (k,), k at most alpha's
    smallest part, has splits exactly when a right factor of alpha has a
    part k.
    """
    cop = f.coproduct
    betas = cop._betas
    out = {}
    todo = [EMPTY]
    while todo:
        alpha = todo.pop()
        parts = set()
        for j, c in zip(*cop[alpha]):
            out[alpha, betas[j]] = c
            parts.update(betas[j])
        todo.extend(alpha + (k,) for k in parts
                    if not alpha or k <= alpha[-1])
    return out


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
    lex-descending.  The column of nu holds only lam that dominate nu,
    and dominance implies lex order, so a column whose nu is lex-above
    every key of f in its degree sums to 0 and is skipped.  Raises
    ValueError on a key that is not a partition.

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
        top = max(sub)
        for nu, col in cols.items():
            if nu > top:
                continue
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
