"""Identity verification suites.

Each suite replays one family of identities at desk scale and returns a
Report: an ordered list of cases, each carrying its serialized inputs,
the relation checked, a holds flag, and a witness payload when a gated
comparison fails.  The alpha-recurrence suite additionally records
non-gating findings for the literal form of the recurrence, which is
known to disagree with direct counting on small cases.

A suite runs its cases one by one in its own loop: it computes the two
sides of a case, builds a witness payload only when they differ, and
appends the case through ``_case``, which sets the holds flag to whether
the witness is empty.  A finding-only case has no witness.

Reports are deterministic for fixed parameters: cases are run in
canonical input order (subpartitions and contents in graded lex order,
bounds ascending).  Suites consume only the public operations of the
other modules.  A suite's signature holds the defaults the command
line uses.  A suite given a parameter outside the range it supports
raises ParameterError before it runs any case.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from math import comb

from . import grothendieck as gr
from . import symfunc as sf
from . import tableaux as tb
from .shapes import (
    EMPTY,
    Partition,
    SkewShape,
    conjugate,
    contains,
    format_partition,
    format_skew,
    graded_lex_key,
    partitions_of,
    rook_strip_inners,
    staircase,
    star_join,
    subpartitions,
)
from .symfunc import BasisExpansion, SymFunc, TruncationProfile

DEFAULT_SEED = 1729


class ParameterError(ValueError):
    """A suite parameter outside the range the suite supports."""


_MAX_SUITE_N = 6  # hard cap on staircase index for any suite

HOPF_PIECES = ("delta-g", "skew-g", "skew-G", "double-sum", "double-conj",
               "ek-tau", "adjunction", "duality")


@dataclass
class Case:
    inputs: dict
    relation: str
    holds: bool
    witness: dict | None = None
    finding: dict | None = None

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "relation": self.relation,
            "holds": self.holds,
            "witness": self.witness,
            "finding": self.finding,
        }


@dataclass
class Report:
    suite: str
    cases: list
    modulus: dict | None = None

    @property
    def passed(self) -> bool:
        """Every case holds, and there is at least one case."""
        return bool(self.cases) and all(c.holds for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "modulus": self.modulus,
            "cases": [c.to_dict() for c in self.cases],
        }


def _case(inputs: dict, relation: str, witness: dict | None,
          finding: dict | None = None) -> Case:
    """A case holds exactly when its comparison left no witness."""
    return Case(inputs, relation, witness is None, witness, finding)


def _profile_dict(trunc: TruncationProfile) -> dict:
    return {"max_degree": trunc.max_degree, "num_vars": trunc.num_vars}


def _sym_witness(lhs: SymFunc, rhs: SymFunc) -> dict | None:
    if lhs.coeffs == rhs.coeffs:
        return None
    keys = sorted(set(lhs.coeffs) | set(rhs.coeffs), key=graded_lex_key)
    return {"differing_coefficients": [
        {"partition": list(k),
         "lhs": str(lhs.coeffs.get(k, 0)),
         "rhs": str(rhs.coeffs.get(k, 0))}
        for k in keys if lhs.coeffs.get(k, 0) != rhs.coeffs.get(k, 0)]}


def _value_witness(lhs: int, rhs: int) -> dict | None:
    return None if lhs == rhs else {"lhs": str(lhs), "rhs": str(rhs)}


def _map_witness(lhs: dict, rhs: dict) -> dict | None:
    if lhs == rhs:
        return None
    keys = sorted(set(lhs) | set(rhs))
    return {"differing_coefficients": [
        {"key": repr(k), "lhs": str(lhs.get(k, 0)), "rhs": str(rhs.get(k, 0))}
        for k in keys if lhs.get(k, 0) != rhs.get(k, 0)]}


def _check_n(n: int) -> None:
    if not 1 <= n <= _MAX_SUITE_N:
        raise ParameterError(
            f"staircase index must be in 1..{_MAX_SUITE_N}, got {n}")


def _sorted_partitions(max_size: int):
    for s in range(max_size + 1):
        yield from partitions_of(s)


# ---------------------------------------------------------------------------
# Stembridge suites


def verify_stembridge_g(n: int = 4) -> Report:
    """g(rho_n/mu) == g(rho_n/mu') for every mu inside the staircase."""
    _check_n(n)
    rho = staircase(n)
    trunc = TruncationProfile.for_degree(sum(rho))
    cases = []
    for mu in subpartitions(rho):
        muc = conjugate(mu)
        inputs = {"n": n, "mu": format_partition(mu),
                  "mu_conjugate": format_partition(muc)}
        lhs = gr.dual_g(SkewShape(rho, mu), trunc)
        rhs = gr.dual_g(SkewShape(rho, muc), trunc)
        cases.append(_case(inputs, "g(rho/mu) == g(rho/mu')",
                           _sym_witness(lhs, rhs)))
    return Report("stembridge-g", cases, _profile_dict(trunc))


def verify_stembridge_G(n: int = 3, extra_degrees: int = 3) -> Report:
    """G(rho_n/mu) == G(rho_n/mu'), truncated |shape| + extra degrees up."""
    _check_n(n)
    if extra_degrees < 0:
        raise ParameterError("extra_degrees must be nonnegative")
    rho = staircase(n)
    cases = []
    for mu in subpartitions(rho):
        muc = conjugate(mu)
        d = sum(rho) - sum(mu) + extra_degrees
        trunc = TruncationProfile.for_degree(d)
        inputs = {"n": n, "mu": format_partition(mu),
                  "mu_conjugate": format_partition(muc),
                  "max_degree": d, "num_vars": trunc.num_vars}
        lhs = gr.big_G(SkewShape(rho, mu), trunc)
        rhs = gr.big_G(SkewShape(rho, muc), trunc)
        cases.append(_case(inputs, "G(rho/mu) == G(rho/mu') mod high degrees",
                           _sym_witness(lhs, rhs)))
    return Report("stembridge-G", cases)


# ---------------------------------------------------------------------------
# lattice counting suites


def _block_witness(nu: Partition, mu: Partition, rho: Partition) -> dict | None:
    """The first lattice filling of nu * mu with content rho that breaks
    a block lemma, or None when every filling keeps both: each row i of
    the upper block (rows 1..len(nu), all right of mu) is all {i}, and
    the lower block repeats no value."""
    shape = star_join(nu, mu)
    top = len(nu)
    for filling in tb.iter_lattice_fillings(shape, rho):
        lower = [v for (r, _), vals in filling.items() if r > top for v in vals]
        if any(vals != (r,) for (r, _), vals in filling.items() if r <= top):
            violation = "upper block row holds more than {i}"
        elif len(lower) != len(set(lower)):
            violation = "lower block repeats a value"
        else:
            continue
        return {"shape": format_skew(shape), "violation": violation,
                "entries": {str(c): list(v) for c, v in sorted(filling.items())}}
    return None


def verify_lattice_rules(n: int = 4) -> Report:
    """Product-coefficient equality c(rho; k-row vs k-column) plus the
    structural facts about lattice fillings of the joined shapes, and the
    skew-coefficient equality alpha(rho/(k)) == alpha(rho/(1^k)).

    The c cases have a closed form.  A staircase's corners are pairwise
    separated (rho_{i+1} = rho_i - 1, and rho = rho'), so rho/nu is a
    horizontal strip exactly when it is a vertical strip and a rook strip.
    When it is one, of m >= k cells, Lenart's K-Pieri rule gives both
    sides as C(m - 1, m - k), sign exponent m - k, and 0 otherwise.
    """
    _check_n(n)
    rho = staircase(n)
    cases = []
    for k in range(1, n + 1):
        row = (k,)
        col = (1,) * k
        for nu in subpartitions(rho):
            inputs = {"n": n, "k": k, "nu": format_partition(nu)}
            witness = _value_witness(gr.lr_coeff(nu, row, rho).value,
                                     gr.lr_coeff(nu, col, rho).value)
            if witness:
                witness["shape_lhs"] = format_skew(star_join(nu, row))
                witness["shape_rhs"] = format_skew(star_join(nu, col))
            cases.append(_case(inputs, "c(rho_n; nu*(k)) == c(rho_n; nu*(1^k))",
                               witness))
            cases.append(_case(inputs,
                               "lattice fillings: upper block rows are {i}; "
                               "lower block is multiplicity free",
                               _block_witness(nu, row, rho)
                               or _block_witness(nu, col, rho)))
        cells = sum(rho) - k
        for nu in _sorted_partitions(cells + 2):
            inputs = {"n": n, "k": k, "nu": format_partition(nu)}
            cases.append(_case(inputs,
                               "alpha(rho/(k), nu) == alpha(rho/(1^k), nu)",
                               _value_witness(
                                   gr.alpha(SkewShape(rho, row), nu).value,
                                   gr.alpha(SkewShape(rho, col), nu).value)))
    return Report("lattice-rules", cases)


def verify_alpha_recurrence(n: int = 4, k: int | None = None,
                            refined: bool = True) -> Report:
    """Row-removal recurrence for the alpha counts on staircase skews.

    The literal recurrence alpha(rho_n/(k), nu) = alpha(rho_{n-1}/(k),
    nu-) + 2 alpha(rho_{n-1}/(k-1), nu-) is replayed in finding mode: its
    failures are recorded, never gated, because direct counting refutes
    it on small inputs (e.g. shape (2,1)/(1) with nu = (1,1) counts 1
    against a literal right side of 2).  The stratified variant splits
    the right side by the forced multiplicity of 1 in the filling: the
    two cases keeping the open cell contribute only when nu_1 = n, the
    remaining case only when nu_1 = n - 1.  With refined=True the
    stratified variant is checked as a gated case.
    """
    _check_n(n)
    if k is None:
        raise ParameterError("k is required")
    if not 1 <= k < n:
        raise ParameterError("need 1 <= k < n")
    rho = staircase(n)
    small = staircase(n - 1)
    cells = sum(rho) - k
    cases = []
    for column in (False, True):
        mu = (1,) * k if column else (k,)
        mu_small = (1,) * (k - 1) if column else ((k - 1,) if k > 1 else EMPTY)
        label = "1^k" if column else "k"
        for nu in _sorted_partitions(cells + 2):
            inputs = {"n": n, "k": k, "mu": format_partition(mu),
                      "nu": format_partition(nu)}
            rest = nu[1:]
            lhs = gr.alpha(SkewShape(rho, mu), nu).value
            keep = gr.alpha(SkewShape(small, mu), rest).value
            shrink = gr.alpha(SkewShape(small, mu_small), rest).value
            rhs = keep + 2 * shrink
            cases.append(_case(inputs,
                               f"finding: alpha(rho_n/({label}), nu) vs literal "
                               "one-row recurrence", None,
                               {"form": "literal", "agrees": lhs == rhs,
                                "lhs": str(lhs), "rhs": str(rhs)}))
            if not refined:
                continue
            nu1 = nu[0] if nu else 0
            if nu1 == n:
                rhs = keep + shrink
            elif nu1 == n - 1:
                rhs = shrink
            else:
                rhs = 0
            cases.append(_case(inputs,
                               f"alpha(rho_n/({label}), nu) == stratified "
                               "one-row recurrence", _value_witness(lhs, rhs)))
    return Report("alpha-recurrence", cases)


# ---------------------------------------------------------------------------
# basis identities


def _pieri_hstrips(lam: Partition, k: int) -> list:
    """All nu inside lam with lam/nu a horizontal strip of k cells, in
    ascending lex order: the nu interlacing lam, lam[i+1] <= nu[i] <=
    lam[i], of size |lam| - k."""
    size = sum(lam) - k
    bounds = [range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,))]
    return sorted(tuple(x for x in nu if x)
                  for nu in itertools.product(*bounds) if sum(nu) == size)


def _pieri_vstrips(lam: Partition, k: int) -> list:
    return [conjugate(nu) for nu in _pieri_hstrips(conjugate(lam), k)]


def verify_basis_identities(k_max: int = 4, max_degree: int = 7) -> Report:
    """Column G's against alternating elementary sums, the binomial G
    expansion of e_k, the single-row g's against h_k, and Pieri sums."""
    if k_max < 1:
        raise ParameterError("k_max must be positive")
    if max_degree < k_max:
        raise ParameterError("need max_degree >= k_max")
    trunc = TruncationProfile.for_degree(max_degree)
    cases = []
    for k in range(1, k_max + 1):
        inputs = {"k": k, "max_degree": max_degree}
        lhs = gr.big_G(SkewShape((1,) * k, EMPTY), trunc)
        rhs = SymFunc.zero(trunc)
        for m in range(k, max_degree + 1):
            term = sf.basis_element("e", (m,), trunc).scale(comb(m - 1, k - 1))
            rhs = rhs + (term if (m - k) % 2 == 0 else -term)
        cases.append(_case(inputs, "G(1^k) == alternating binomial sum of e_m",
                           _sym_witness(lhs, rhs)))
        exp = gr.expand_in_G(sf.basis_element("e", (k,), trunc))
        want = {(1,) * m: comb(m - 1, k - 1) for m in range(k, max_degree + 1)}
        cases.append(_case(inputs,
                           "G-expansion of e_k has binomial column coefficients",
                           _map_witness(exp.coeffs, want)))
    for k in range(1, max_degree + 1):
        p = TruncationProfile.for_degree(k)
        lhs = gr.dual_g(SkewShape((k,), EMPTY), p)
        rhs = sf.basis_element("h", (k,), p)
        cases.append(_case({"k": k}, "g(k) == h_k", _sym_witness(lhs, rhs)))
    box = (4, 4, 4, 4)
    for lam in subpartitions(box):
        for k in range(1, k_max + 1):
            inputs = {"lam": format_partition(lam), "k": k}
            p = TruncationProfile.for_degree(max(sum(lam) - k, 0))
            for vertical, relation in (
                    (False, "s(lam/(k)) == sum over horizontal strips"),
                    (True, "s(lam/(1^k)) == sum over vertical strips")):
                mu = (1,) * k if vertical else (k,)
                if contains(lam, mu):
                    lhs = gr.schur(SkewShape(lam, mu), p)
                else:
                    lhs = SymFunc.zero(p)
                strips = (_pieri_vstrips(lam, k) if vertical
                          else _pieri_hstrips(lam, k))
                rhs = SymFunc.zero(p)
                for nu in strips:
                    rhs = rhs + sf.schur_to_m(nu, p)
                cases.append(_case(inputs, relation, _sym_witness(lhs, rhs)))
    return Report("basis", cases, _profile_dict(trunc))


# ---------------------------------------------------------------------------
# Hopf suite


def verify_hopf(n: int = 3, max_degree: int | None = None,
                include: tuple = HOPF_PIECES) -> Report:
    """Comultiplication, skewing, conjugation, and duality identities.

    ``max_degree`` is the truncation for the identities that involve
    stable Grothendieck series (default |rho_n| + 2); the polynomial
    identities fix their own exact profiles.  ``include`` selects pieces
    by name from HOPF_PIECES.
    """
    _check_n(n)
    rho = staircase(n)
    if max_degree is None:
        max_degree = sum(rho) + 2
    if max_degree < sum(rho):
        raise ParameterError("max_degree below |rho_n|")
    unknown = set(include) - set(HOPF_PIECES)
    if unknown:
        raise ParameterError(f"unknown hopf pieces: {sorted(unknown)}")
    trunc = TruncationProfile.for_degree(max_degree)
    cases = []

    if "delta-g" in include:
        for lam in _sorted_partitions(min(n + 1, 5)):
            p = TruncationProfile.for_degree(max(sum(lam), 1))
            lhs = sf.split_alphabets(gr.dual_g(SkewShape(lam, EMPTY), p))
            rhs: dict = {}
            for mu in subpartitions(lam):
                gx = gr.dual_g(SkewShape(mu, EMPTY), p).coeffs
                gy = gr.dual_g(SkewShape(lam, mu), p).coeffs
                for k1, c1 in gx.items():
                    for k2, c2 in gy.items():
                        key = (k1, k2)
                        rhs[key] = rhs.get(key, 0) + c1 * c2
            rhs = {k: v for k, v in rhs.items() if v}
            cases.append(_case({"lam": format_partition(lam)},
                               "two-alphabet split of g_lam == sum of "
                               "g_mu (x) g_lam/mu (y)", _map_witness(lhs, rhs)))

    if "skew-g" in include:
        for lam in subpartitions(rho):
            p = TruncationProfile.for_degree(max(sum(lam), 1))
            glam = gr.dual_g(SkewShape(lam, EMPTY), p)
            for mu in subpartitions(lam):
                inputs = {"lam": format_partition(lam),
                          "mu": format_partition(mu)}
                lhs = gr.skew_by(BasisExpansion("G", {mu: 1}, p), glam)
                rhs = gr.dual_g(SkewShape(lam, mu), p)
                cases.append(_case(inputs, "skew by G_mu of g_lam == g(lam/mu)",
                                   _sym_witness(lhs, rhs)))

    if {"skew-G", "double-sum", "double-conj"} & set(include):
        # the skew side needs the series beyond the comparison degree:
        # pairing against g_mu consumes up to |mu| degrees of the operand
        ext = TruncationProfile.for_degree(max_degree + sum(rho))
        # double-sum's running sums S(mu) of G(rho//sigma) over sigma in mu,
        # each dropped after its last read: readers[sigma] counts the mu
        # that read S(sigma), one per nonempty corner set A of mu with
        # sigma = mu - A
        sums: dict[Partition, dict[Partition, int]] = {}
        readers = Counter(sigma for mu in subpartitions(rho)
                          for sigma, cells in rook_strip_inners(mu) if cells)
        for mu in subpartitions(rho):
            inputs = {"n": n, "mu": format_partition(mu),
                      "max_degree": max_degree}
            if "skew-G" in include:
                series = gr.big_G(SkewShape(rho, EMPTY), ext)
                skewed = gr.skew_by(BasisExpansion("g", {mu: 1}, ext), series)
                lhs = SymFunc({k: c for k, c in skewed.coeffs.items()
                               if sum(k) <= max_degree}, trunc)
                rhs = gr.big_G_double(rho, mu, trunc)
                cases.append(_case(inputs, "skew by g_mu of G_rho == rook-strip "
                                   "sum G(rho//mu)", _sym_witness(lhs, rhs)))
            if "double-sum" in include:
                # Young's lattice is distributive: the sigma below mu, less
                # mu, are those below mu - A for some nonempty set A of
                # corners of mu, and the sigma below mu - A and below mu - B
                # are those below mu - (A u B).  So by inclusion-exclusion
                # S(mu) = G(rho//mu) + sum over A of (-1)^(|A|+1) S(mu - A),
                # each S(mu - A) summed earlier, as mu - A comes first in
                # graded lex order.
                total = dict(gr.big_G_double(rho, mu, trunc).coeffs)
                for sigma, cells in rook_strip_inners(mu):
                    if cells:
                        sign = 1 if cells % 2 else -1
                        for k, c in sums[sigma].items():
                            total[k] = total.get(k, 0) + sign * c
                        readers[sigma] -= 1
                        if not readers[sigma]:
                            del sums[sigma]
                if readers[mu]:
                    sums[mu] = total
                lhs = SymFunc(total, trunc)
                rhs = gr.big_G(SkewShape(rho, mu), trunc)
                cases.append(_case(inputs, "sum of G(rho//sigma) over sigma in "
                                   "mu == G(rho/mu)", _sym_witness(lhs, rhs)))
            if "double-conj" in include:
                lhs = gr.big_G_double(rho, mu, trunc)
                rhs = gr.big_G_double(rho, conjugate(mu), trunc)
                cases.append(_case(inputs, "G(rho//mu) == G(rho//mu')",
                                   _sym_witness(lhs, rhs)))

    if "ek-tau" in include:
        for k in range(1, 5):
            p = TruncationProfile.for_degree(max(sum(rho), k, 1))
            grho = gr.dual_g(SkewShape(rho, EMPTY), p)
            lhs = gr.skew_by(BasisExpansion("e", {(k,): 1}, p), grho)
            ek = sf.basis_element("e", (k,), p)
            rhs = gr.skew_by(gr.tau(gr.expand_in_G(ek)), grho)
            cases.append(_case({"n": n, "k": k},
                               "skew by e_k of g_rho == skew by tau(e_k) of g_rho",
                               _sym_witness(lhs, rhs)))

    if "adjunction" in include:
        p = TruncationProfile.for_degree(8)
        small = list(_sorted_partitions(3))
        for lam in small:
            for nu in small:
                for mu in _sorted_partitions(5):
                    inputs = {"f": format_partition(lam),
                              "g": format_partition(nu),
                              "a": format_partition(mu)}
                    a = sf.schur_to_m(mu, p)
                    skewed = gr.skew_by(BasisExpansion("s", {lam: 1}, p), a)
                    lhs = sf.hall_inner(BasisExpansion("s", {nu: 1}, p),
                                        sf.m_to_schur(skewed))
                    prod = sf.multiply(sf.schur_to_m(lam, p),
                                       sf.schur_to_m(nu, p))
                    rhs = sf.m_to_schur(prod).coeffs.get(mu, 0)
                    cases.append(_case(inputs, "<s_g, skew by s_f of s_a> == "
                                       "<s_f s_g, s_a>", _value_witness(lhs, rhs)))

    if "duality" in include:
        # two engines: G_lam's Schur expansion from the flagged walk, g_mu's
        # from its chain table
        p = TruncationProfile.for_degree(5)
        pairs = list(_sorted_partitions(5))
        for lam in pairs:
            gexp = gr.to_schur_expansion(BasisExpansion("G", {lam: 1}, p))
            for mu in pairs:
                hexp = sf.m_to_schur(gr.dual_g(SkewShape(mu, EMPTY), p))
                cases.append(_case({"lam": format_partition(lam),
                                    "mu": format_partition(mu)},
                                   "<G_lam, g_mu> == delta",
                                   _value_witness(sf.hall_inner(gexp, hexp),
                                                  int(lam == mu))))

    return Report("hopf", cases, _profile_dict(trunc))


# ---------------------------------------------------------------------------
# converse scan


def converse_scan(max_size: int = 12) -> Report:
    """Scan all partitions up to max_size: the shapes for which skewing
    by a row always matches skewing by the equal-size column must be
    exactly the staircases.

    Each comparison comes down to Pieri sums: the row and column skews
    agree exactly when every horizontal-strip complement set matches the
    vertical-strip complement set.
    """
    if max_size < 1:
        raise ParameterError("max_size must be positive")
    staircases = set()
    m = 0
    while sum(staircase(m)) <= max_size:
        staircases.add(staircase(m))
        m += 1
    cases = []
    for lam in _sorted_partitions(max_size):
        expected = lam in staircases
        inputs = {"lam": format_partition(lam),
                  "expected_staircase": expected}
        top = max(lam[0] if lam else 0, len(lam), 1)
        first_bad = None
        for k in range(1, top + 1):
            h = set(_pieri_hstrips(lam, k))
            v = set(_pieri_vstrips(lam, k))
            if h != v:
                first_bad = (k, h, v)
                break
        passes = first_bad is None
        witness = None
        if passes != expected:
            witness = {"passes_row_column_equality": passes}
            if first_bad:
                k, h, v = first_bad
                witness.update({
                    "first_failing_k": k,
                    "horizontal_complements": sorted(map(list, h)),
                    "vertical_complements": sorted(map(list, v))})
        cases.append(_case(inputs,
                           "row/column skew equality holds iff lam is a "
                           "staircase", witness))
    return Report("converse", cases)


# ---------------------------------------------------------------------------
# arithmetic oracle


def _dense_monomials(f: SymFunc, nvars: int) -> dict:
    """Independent expansion of a monomial-basis element table into the
    explicit polynomial over exponent vectors in nvars variables."""
    out: dict = {}
    for lam, c in f.coeffs.items():
        padded = tuple(lam) + (0,) * (nvars - len(lam))
        for arr in set(itertools.permutations(padded)):
            out[arr] = out.get(arr, 0) + c
    return out


def verify_multiply_oracle(pairs: int = 100, max_degree: int = 6,
                           seed: int = DEFAULT_SEED) -> Report:
    """Monomial-basis products against brute-force polynomial expansion."""
    if not 1 <= max_degree <= 6:
        raise ParameterError("max_degree must be in 1..6")
    if pairs < 1:
        raise ParameterError("pairs must be at least 1")
    rng = random.Random(seed)
    trunc = TruncationProfile.for_degree(max_degree)
    nvars = trunc.num_vars
    tags = ("m", "e", "h")

    def random_element(cap: int):
        d = rng.randint(0, cap)
        lam = rng.choice(list(partitions_of(d)) or [EMPTY])
        return rng.choice(tags), lam

    cases = []
    for i in range(pairs):
        t1, lam = random_element(max_degree)
        t2, mu = random_element(max_degree - sum(lam))
        inputs = {"case": i, "f": f"{t1}[{format_partition(lam)}]",
                  "g": f"{t2}[{format_partition(mu)}]"}
        f = sf.basis_element(t1, lam, trunc)
        g = sf.basis_element(t2, mu, trunc)
        fast = sf.multiply(f, g)
        dense: dict = {}
        dense_g = _dense_monomials(g, nvars)
        for ea, ca in _dense_monomials(f, nvars).items():
            for eb, cb in dense_g.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                if sum(key) <= max_degree:
                    dense[key] = dense.get(key, 0) + ca * cb
        # the m coefficient at a partition is the coefficient of its
        # weakly decreasing exponent vector
        collected: dict = {}
        for expo, c in dense.items():
            if c and all(expo[j] >= expo[j + 1] for j in range(nvars - 1)):
                lam2 = expo
                while lam2 and lam2[-1] == 0:
                    lam2 = lam2[:-1]
                collected[lam2] = c
        cases.append(_case(inputs, "monomial product == dense polynomial product",
                           _map_witness(fast.coeffs, collected)))
    return Report("multiply-oracle", cases, _profile_dict(trunc))


SUITES = {
    "stembridge-g": verify_stembridge_g,
    "stembridge-G": verify_stembridge_G,
    "lattice-rules": verify_lattice_rules,
    "alpha-recurrence": verify_alpha_recurrence,
    "basis": verify_basis_identities,
    "hopf": verify_hopf,
    "converse": converse_scan,
    "multiply-oracle": verify_multiply_oracle,
}
