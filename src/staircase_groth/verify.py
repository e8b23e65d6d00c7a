"""Identity verification suites.

Each suite replays one family of identities at desk scale and returns a
Report: an ordered list of cases, each carrying its serialized inputs,
the relation checked, a holds flag, and a witness payload when a gated
comparison fails.  The alpha-recurrence suite additionally records
non-gating findings for the literal form of the recurrence, which is
known to disagree with direct counting on small cases.

Reports are deterministic for fixed parameters: cases are generated in
canonical input order (subpartitions and contents in graded lex order,
bounds ascending), never in completion order.  Case evaluation may be
parallelized by setting STAIRCASE_GROTH_THREADS; assembly stays ordered.
Suites consume only the public operations of the other modules.  A
suite given a parameter outside the range it supports raises
ParameterError before it runs any case.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ThreadPoolExecutor
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


def _thread_count() -> int:
    raw = os.environ.get("STAIRCASE_GROTH_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _evaluate(specs: list) -> list:
    """Run (inputs, relation, thunk) specs, order-stable."""
    n = _thread_count()
    if n > 1 and len(specs) > 1:
        with ThreadPoolExecutor(max_workers=n) as ex:
            outcomes = list(ex.map(lambda s: s[2](), specs))
    else:
        outcomes = [s[2]() for s in specs]
    return [Case(s[0], s[1], *out) for s, out in zip(specs, outcomes)]


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


def _sorted_partitions(max_size: int, min_size: int = 0):
    for s in range(min_size, max_size + 1):
        yield from sorted(partitions_of(s), key=graded_lex_key)


# ---------------------------------------------------------------------------
# Stembridge suites


def verify_stembridge_g(n: int) -> Report:
    """g(rho_n/mu) == g(rho_n/mu') for every mu inside the staircase."""
    _check_n(n)
    rho = staircase(n)
    trunc = TruncationProfile.for_degree(sum(rho))
    specs = []
    for mu in subpartitions(rho):
        muc = conjugate(mu)
        inputs = {"n": n, "mu": format_partition(mu),
                  "mu_conjugate": format_partition(muc)}

        def thunk(mu=mu, muc=muc):
            lhs = gr.dual_g(SkewShape(rho, mu), trunc)
            rhs = gr.dual_g(SkewShape(rho, muc), trunc)
            w = _sym_witness(lhs, rhs)
            return (w is None, w, None)

        specs.append((inputs, "g(rho/mu) == g(rho/mu')", thunk))
    return Report("stembridge-g", _evaluate(specs), _profile_dict(trunc))


def verify_stembridge_G(n: int, extra_degrees: int = 3) -> Report:
    """G(rho_n/mu) == G(rho_n/mu'), truncated |shape| + extra degrees up."""
    _check_n(n)
    if extra_degrees < 0:
        raise ParameterError("extra_degrees must be nonnegative")
    rho = staircase(n)
    specs = []
    for mu in subpartitions(rho):
        muc = conjugate(mu)
        d = sum(rho) - sum(mu) + extra_degrees
        trunc = TruncationProfile.for_degree(d)
        inputs = {"n": n, "mu": format_partition(mu),
                  "mu_conjugate": format_partition(muc),
                  "max_degree": d, "num_vars": trunc.num_vars}

        def thunk(mu=mu, muc=muc, trunc=trunc):
            lhs = gr.big_G(SkewShape(rho, mu), trunc)
            rhs = gr.big_G(SkewShape(rho, muc), trunc)
            w = _sym_witness(lhs, rhs)
            return (w is None, w, None)

        specs.append((inputs, "G(rho/mu) == G(rho/mu') mod high degrees", thunk))
    return Report("stembridge-G", _evaluate(specs))


# ---------------------------------------------------------------------------
# lattice counting suites


def _nu_block_uniform(filling: tb.SetFilling, nu: Partition, width: int) -> bool:
    # in the joined shape, row i of the upper-right block must be all {i}
    for (r, c), vals in filling.entries.items():
        if r <= len(nu) and c > width and vals != (r,):
            return False
    return True


def _lower_block_multiplicity_free(filling: tb.SetFilling, nu: Partition) -> bool:
    seen: set[int] = set()
    for (r, _c), vals in filling.entries.items():
        if r <= len(nu):
            continue
        for v in vals:
            if v in seen:
                return False
            seen.add(v)
    return True


def verify_lattice_rules(n: int) -> Report:
    """Product-coefficient equality c(rho; k-row vs k-column) plus the
    structural facts about lattice fillings of the joined shapes, and the
    skew-coefficient equality alpha(rho/(k)) == alpha(rho/(1^k))."""
    _check_n(n)
    rho = staircase(n)
    specs = []
    for k in range(1, n + 1):
        row = (k,)
        col = (1,) * k
        for nu in subpartitions(rho):
            inputs = {"n": n, "k": k, "nu": format_partition(nu)}

            def c_thunk(nu=nu, row=row, col=col):
                a = gr.lr_coeff(nu, row, rho).value
                b = gr.lr_coeff(nu, col, rho).value
                if a == b:
                    return (True, None, None)
                return (False, {"lhs": str(a), "rhs": str(b),
                                "shape_lhs": format_skew(star_join(nu, row)),
                                "shape_rhs": format_skew(star_join(nu, col))},
                        None)

            specs.append((inputs, "c(rho_n; nu*(k)) == c(rho_n; nu*(1^k))",
                          c_thunk))

            def structure_thunk(nu=nu, row=row, col=col, k=k):
                for mu in (row, col):
                    shape = star_join(nu, mu)
                    for filling in tb.iter_lattice_fillings(shape, rho):
                        if not _nu_block_uniform(filling, nu, mu[0] if mu else 0):
                            return (False, {
                                "shape": format_skew(shape),
                                "violation": "upper block row holds more than {i}",
                                "entries": {str(c): list(v) for c, v in
                                            sorted(filling.entries.items())}},
                                None)
                        if not _lower_block_multiplicity_free(filling, nu):
                            return (False, {
                                "shape": format_skew(shape),
                                "violation": "lower block repeats a value",
                                "entries": {str(c): list(v) for c, v in
                                            sorted(filling.entries.items())}},
                                None)
                return (True, None, None)

            specs.append((inputs,
                          "lattice fillings: upper block rows are {i}; "
                          "lower block is multiplicity free", structure_thunk))
        cells = sum(rho) - k
        for nu in _sorted_partitions(cells + 2):
            inputs = {"n": n, "k": k, "nu": format_partition(nu)}

            def a_thunk(nu=nu, row=row, col=col):
                a = gr.alpha(SkewShape(rho, row), nu).value
                b = gr.alpha(SkewShape(rho, col), nu).value
                if a == b:
                    return (True, None, None)
                return (False, {"lhs": str(a), "rhs": str(b)}, None)

            specs.append((inputs, "alpha(rho/(k), nu) == alpha(rho/(1^k), nu)",
                          a_thunk))
    return Report("lattice-rules", _evaluate(specs))


def verify_alpha_recurrence(n: int, k: int, refined: bool = True) -> Report:
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
    if not 1 <= k < n:
        raise ParameterError("need 1 <= k < n")
    rho = staircase(n)
    cells = sum(rho) - k
    specs = []
    for column in (False, True):
        mu = (1,) * k if column else (k,)
        mu_small = (1,) * (k - 1) if column else ((k - 1,) if k > 1 else EMPTY)
        label = "1^k" if column else "k"
        for nu in _sorted_partitions(cells + 2):
            inputs = {"n": n, "k": k, "mu": format_partition(mu),
                      "nu": format_partition(nu)}
            rest = nu[1:]

            def literal_thunk(nu=nu, rest=rest, mu=mu, mu_small=mu_small):
                lhs = gr.alpha(SkewShape(rho, mu), nu).value
                rhs = (gr.alpha(SkewShape(staircase(n - 1), mu), rest).value
                       + 2 * gr.alpha(SkewShape(staircase(n - 1), mu_small),
                                      rest).value)
                if lhs == rhs:
                    return (True, None, {"form": "literal", "agrees": True,
                                         "lhs": str(lhs), "rhs": str(rhs)})
                return (True, None, {"form": "literal", "agrees": False,
                                     "lhs": str(lhs), "rhs": str(rhs)})

            specs.append((inputs,
                          f"finding: alpha(rho_n/({label}), nu) vs literal "
                          "one-row recurrence", literal_thunk))
            if not refined:
                continue

            def strat_thunk(nu=nu, rest=rest, mu=mu, mu_small=mu_small):
                lhs = gr.alpha(SkewShape(rho, mu), nu).value
                nu1 = nu[0] if nu else 0
                if nu1 == n:
                    rhs = (gr.alpha(SkewShape(staircase(n - 1), mu), rest).value
                           + gr.alpha(SkewShape(staircase(n - 1), mu_small),
                                      rest).value)
                elif nu1 == n - 1:
                    rhs = gr.alpha(SkewShape(staircase(n - 1), mu_small),
                                   rest).value
                else:
                    rhs = 0
                if lhs == rhs:
                    return (True, None, None)
                return (False, {"lhs": str(lhs), "rhs": str(rhs)}, None)

            specs.append((inputs,
                          f"alpha(rho_n/({label}), nu) == stratified one-row "
                          "recurrence", strat_thunk))
    return Report("alpha-recurrence", _evaluate(specs))


# ---------------------------------------------------------------------------
# basis identities


def _pieri_hstrips(lam: Partition, k: int) -> list:
    """All nu inside lam with lam/nu a horizontal strip of k cells."""
    rows = len(lam)
    target = sum(lam) - k
    if target < 0:
        return []
    acc = []

    def rec(i: int, total: int, cur: tuple) -> None:
        if total > target:
            return
        if i == rows:
            if total == target:
                p = cur
                while p and p[-1] == 0:
                    p = p[:-1]
                acc.append(p)
            return
        lo = lam[i + 1] if i + 1 < rows else 0
        for v in range(lo, lam[i] + 1):
            rec(i + 1, total + v, cur + (v,))

    rec(0, 0, ())
    return acc


def _pieri_vstrips(lam: Partition, k: int) -> list:
    return [conjugate(nu) for nu in _pieri_hstrips(conjugate(lam), k)]


def verify_basis_identities(k_max: int, max_degree: int) -> Report:
    """Column G's against alternating elementary sums, the binomial G
    expansion of e_k, the single-row g's against h_k, and Pieri sums."""
    if k_max < 1:
        raise ParameterError("k_max must be positive")
    if max_degree < k_max:
        raise ParameterError("need max_degree >= k_max")
    trunc = TruncationProfile.for_degree(max_degree)
    specs = []
    for k in range(1, k_max + 1):
        inputs = {"k": k, "max_degree": max_degree}

        def col_thunk(k=k):
            lhs = gr.big_G(SkewShape((1,) * k, EMPTY), trunc)
            rhs = SymFunc.zero(trunc)
            for m in range(k, max_degree + 1):
                term = sf.basis_element("e", (m,), trunc).scale(comb(m - 1, k - 1))
                rhs = rhs + (term if (m - k) % 2 == 0 else -term)
            w = _sym_witness(lhs, rhs)
            return (w is None, w, None)

        specs.append((inputs,
                      "G(1^k) == alternating binomial sum of e_m", col_thunk))

        def ek_thunk(k=k):
            exp = gr.expand_in_G(sf.basis_element("e", (k,), trunc))
            want = {(1,) * m: comb(m - 1, k - 1)
                    for m in range(k, max_degree + 1)}
            w = _map_witness(exp.coeffs, want)
            return (w is None, w, None)

        specs.append((inputs,
                      "G-expansion of e_k has binomial column coefficients",
                      ek_thunk))
    for k in range(1, max_degree + 1):
        inputs = {"k": k}

        def gh_thunk(k=k):
            p = TruncationProfile.for_degree(k)
            lhs = gr.dual_g(SkewShape((k,), EMPTY), p)
            rhs = sf.basis_element("h", (k,), p)
            w = _sym_witness(lhs, rhs)
            return (w is None, w, None)

        specs.append((inputs, "g(k) == h_k", gh_thunk))
    def pieri_case(lam: Partition, k: int, vertical: bool):
        p = TruncationProfile.for_degree(max(sum(lam) - k, 0))
        mu = (1,) * k if vertical else (k,)
        if contains(lam, mu):
            lhs = gr.schur(SkewShape(lam, mu), p)
        else:
            lhs = SymFunc.zero(p)
        strips = _pieri_vstrips(lam, k) if vertical else _pieri_hstrips(lam, k)
        rhs = SymFunc.zero(p)
        for nu in strips:
            rhs = rhs + sf.schur_to_m(nu, p)
        w = _sym_witness(lhs, rhs)
        return (w is None, w, None)

    box = (4, 4, 4, 4)
    for lam in subpartitions(box):
        for k in range(1, k_max + 1):
            inputs = {"lam": format_partition(lam), "k": k}
            specs.append((inputs, "s(lam/(k)) == sum over horizontal strips",
                          lambda lam=lam, k=k: pieri_case(lam, k, False)))
            specs.append((inputs, "s(lam/(1^k)) == sum over vertical strips",
                          lambda lam=lam, k=k: pieri_case(lam, k, True)))
    return Report("basis", _evaluate(specs), _profile_dict(trunc))


# ---------------------------------------------------------------------------
# Hopf suite


def verify_hopf(n: int, max_degree: int | None = None,
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
    specs = []

    if "delta-g" in include:
        for lam in _sorted_partitions(min(n + 1, 5)):
            inputs = {"lam": format_partition(lam)}

            def delta_thunk(lam=lam):
                p = TruncationProfile.for_degree(max(sum(lam), 1))
                nv = p.num_vars
                lhs = sf.split_alphabets(gr.dual_g(SkewShape(lam, EMPTY), p),
                                         nv, nv)
                rhs: dict = {}
                for mu in subpartitions(lam):
                    gx = gr.dual_g(SkewShape(mu, EMPTY), p).coeffs
                    gy = gr.dual_g(SkewShape(lam, mu), p).coeffs
                    for k1, c1 in gx.items():
                        for k2, c2 in gy.items():
                            key = (k1, k2)
                            rhs[key] = rhs.get(key, 0) + c1 * c2
                rhs = {k: v for k, v in rhs.items() if v}
                w = _map_witness(lhs, rhs)
                return (w is None, w, None)

            specs.append((inputs,
                          "two-alphabet split of g_lam == sum of "
                          "g_mu (x) g_lam/mu (y)", delta_thunk))

    if "skew-g" in include:
        for lam in subpartitions(rho):
            for mu in subpartitions(lam):
                inputs = {"lam": format_partition(lam),
                          "mu": format_partition(mu)}

                def sg_thunk(lam=lam, mu=mu):
                    p = TruncationProfile.for_degree(max(sum(lam), 1))
                    glam = gr.dual_g(SkewShape(lam, EMPTY), p)
                    lhs = gr.skew_by(BasisExpansion("G", {mu: 1}, p), glam)
                    rhs = gr.dual_g(SkewShape(lam, mu), p)
                    w = _sym_witness(lhs, rhs)
                    return (w is None, w, None)

                specs.append((inputs, "skew by G_mu of g_lam == g(lam/mu)",
                              sg_thunk))

    if {"skew-G", "double-sum", "double-conj"} & set(include):
        # the skew side needs the series beyond the comparison degree:
        # pairing against g_mu consumes up to |mu| degrees of the operand
        ext = TruncationProfile.for_degree(max_degree + sum(rho))
        for mu in subpartitions(rho):
            inputs = {"n": n, "mu": format_partition(mu),
                      "max_degree": max_degree}
            if "skew-G" in include:

                def sG_thunk(mu=mu):
                    series = gr.big_G(SkewShape(rho, EMPTY), ext)
                    skewed = gr.skew_by(BasisExpansion("g", {mu: 1}, ext),
                                        series)
                    lhs = SymFunc({k: c for k, c in skewed.coeffs.items()
                                   if sum(k) <= max_degree}, trunc)
                    rhs = gr.big_G_double(rho, mu, trunc)
                    w = _sym_witness(lhs, rhs)
                    return (w is None, w, None)

                specs.append((inputs,
                              "skew by g_mu of G_rho == rook-strip sum "
                              "G(rho//mu)", sG_thunk))
            if "double-sum" in include:

                def ds_thunk(mu=mu):
                    lhs = SymFunc.zero(trunc)
                    for sigma in subpartitions(mu):
                        lhs = lhs + gr.big_G_double(rho, sigma, trunc)
                    rhs = gr.big_G(SkewShape(rho, mu), trunc)
                    w = _sym_witness(lhs, rhs)
                    return (w is None, w, None)

                specs.append((inputs,
                              "sum of G(rho//sigma) over sigma in mu == "
                              "G(rho/mu)", ds_thunk))
            if "double-conj" in include:

                def dc_thunk(mu=mu):
                    lhs = gr.big_G_double(rho, mu, trunc)
                    rhs = gr.big_G_double(rho, conjugate(mu), trunc)
                    w = _sym_witness(lhs, rhs)
                    return (w is None, w, None)

                specs.append((inputs, "G(rho//mu) == G(rho//mu')", dc_thunk))

    if "ek-tau" in include:
        for k in range(1, 5):
            inputs = {"n": n, "k": k}

            def ek_thunk(k=k):
                p = TruncationProfile.for_degree(max(sum(rho), k, 1))
                grho = gr.dual_g(SkewShape(rho, EMPTY), p)
                lhs = gr.skew_by(BasisExpansion("e", {(k,): 1}, p), grho)
                ek = sf.basis_element("e", (k,), p)
                rhs = gr.skew_by(gr.tau(gr.expand_in_G(ek)), grho)
                w = _sym_witness(lhs, rhs)
                return (w is None, w, None)

            specs.append((inputs,
                          "skew by e_k of g_rho == skew by tau(e_k) of g_rho",
                          ek_thunk))

    if "adjunction" in include:
        p = TruncationProfile.for_degree(8)
        small = list(_sorted_partitions(3))
        for lam in small:
            for nu in small:
                for mu in _sorted_partitions(5):
                    inputs = {"f": format_partition(lam),
                              "g": format_partition(nu),
                              "a": format_partition(mu)}

                    def adj_thunk(lam=lam, nu=nu, mu=mu, p=p):
                        a = sf.schur_to_m(mu, p)
                        skewed = gr.skew_by(BasisExpansion("s", {lam: 1}, p), a)
                        lhs = sf.hall_inner(
                            BasisExpansion("s", {nu: 1}, p), sf.m_to_schur(skewed))
                        prod = sf.multiply(sf.schur_to_m(lam, p),
                                           sf.schur_to_m(nu, p))
                        rhs = sf.m_to_schur(prod).coeffs.get(mu, 0)
                        if lhs == rhs:
                            return (True, None, None)
                        return (False, {"lhs": str(lhs), "rhs": str(rhs)}, None)

                    specs.append((inputs,
                                  "<s_g, skew by s_f of s_a> == <s_f s_g, s_a>",
                                  adj_thunk))

    if "duality" in include:
        p = TruncationProfile.for_degree(5)
        pairs = list(_sorted_partitions(5))
        for lam in pairs:
            for mu in pairs:
                inputs = {"lam": format_partition(lam),
                          "mu": format_partition(mu)}

                def dual_thunk(lam=lam, mu=mu, p=p):
                    gexp = sf.m_to_schur(gr.big_G(SkewShape(lam, EMPTY), p))
                    hexp = sf.m_to_schur(gr.dual_g(SkewShape(mu, EMPTY), p))
                    v = sf.hall_inner(gexp, hexp)
                    want = 1 if lam == mu else 0
                    if v == want:
                        return (True, None, None)
                    return (False, {"lhs": str(v), "rhs": str(want)}, None)

                specs.append((inputs, "<G_lam, g_mu> == delta", dual_thunk))

    return Report("hopf", _evaluate(specs), _profile_dict(trunc))


# ---------------------------------------------------------------------------
# converse scan


def converse_scan(max_size: int) -> Report:
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
    specs = []
    for lam in _sorted_partitions(max_size, min_size=0):
        expected = lam in staircases
        inputs = {"lam": format_partition(lam),
                  "expected_staircase": expected}

        def thunk(lam=lam, expected=expected):
            top = max(lam[0] if lam else 0, len(lam), 1)
            first_bad = None
            for k in range(1, top + 1):
                h = set(_pieri_hstrips(lam, k))
                v = set(_pieri_vstrips(lam, k))
                if h != v:
                    first_bad = (k, h, v)
                    break
            passes = first_bad is None
            if passes == expected:
                return (True, None, None)
            w = {"passes_row_column_equality": passes}
            if first_bad:
                k, h, v = first_bad
                w.update({
                    "first_failing_k": k,
                    "horizontal_complements": sorted(map(list, h)),
                    "vertical_complements": sorted(map(list, v))})
            return (False, w, None)

        specs.append((inputs,
                      "row/column skew equality holds iff lam is a staircase",
                      thunk))
    return Report("converse", _evaluate(specs))


# ---------------------------------------------------------------------------
# arithmetic oracle


def _dense_monomials(f: SymFunc, nvars: int) -> dict:
    """Independent expansion of a monomial-basis element table into the
    explicit polynomial over exponent vectors in nvars variables."""
    out: dict = {}
    for lam, c in f.coeffs.items():
        if len(lam) > nvars:
            continue
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

    specs = []
    for i in range(pairs):
        t1, lam = random_element(max_degree)
        t2, mu = random_element(max_degree - sum(lam))
        inputs = {"case": i, "f": f"{t1}[{format_partition(lam)}]",
                  "g": f"{t2}[{format_partition(mu)}]"}

        def thunk(t1=t1, lam=lam, t2=t2, mu=mu):
            f = sf.basis_element(t1, lam, trunc)
            g = sf.basis_element(t2, mu, trunc)
            fast = sf.multiply(f, g)
            dense: dict = {}
            for ea, ca in _dense_monomials(f, nvars).items():
                for eb, cb in _dense_monomials(g, nvars).items():
                    key = tuple(x + y for x, y in zip(ea, eb))
                    if sum(key) <= max_degree:
                        dense[key] = dense.get(key, 0) + ca * cb
            # the m coefficient at a partition is the coefficient of its
            # weakly decreasing exponent vector
            collected: dict = {}
            for expo, c in dense.items():
                if c and all(expo[i] >= expo[i + 1] for i in range(nvars - 1)):
                    lam2 = expo
                    while lam2 and lam2[-1] == 0:
                        lam2 = lam2[:-1]
                    collected[lam2] = c
            w = _map_witness(fast.coeffs, collected)
            return (w is None, w, None)

        specs.append((inputs, "monomial product == dense polynomial product",
                      thunk))
    return Report("multiply-oracle", _evaluate(specs), _profile_dict(trunc))


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
