"""Case populations, seeded sampling and case execution for the benchmark.

A workload is a population of cases from one identity suite.  Each case
is a pair of calls into the public functions of
``staircase_groth.grothendieck`` whose results must agree; ``run_case``
makes the calls and ``canonical`` renders both results as text, so a
run can check the identity and compare a digest of the text with the
one recorded in ``reference.json``.

The seed picks, case by case, which side is computed first (see
``sample``).  The library only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

import tracing

from staircase_groth import grothendieck as gr
from staircase_groth.shapes import (
    EMPTY,
    SkewShape,
    conjugate,
    format_partition,
    graded_lex_key,
    partitions_of,
    staircase,
    subpartitions,
)
from staircase_groth.symfunc import BasisExpansion, SymFunc, TruncationProfile

# hex digits kept of each case's SHA-256 in reference.json
DIGEST_HEX = 10


@dataclass(frozen=True)
class Case:
    index: int  # position in the workload's population
    id: str
    kind: str
    args: tuple
    flip: bool = False  # compute the right side first


def _stembridge(kind: str) -> list[Case]:
    rho = staircase(6)
    full = TruncationProfile.for_degree(sum(rho))
    out = []
    for i, mu in enumerate(subpartitions(rho)):
        # the G suite truncates one degree above the skew shape's size
        trunc = full if kind == "g" else TruncationProfile.for_degree(
            sum(rho) - sum(mu) + 1)
        out.append(Case(i, f"mu={format_partition(mu)}", kind,
                        (rho, mu, conjugate(mu), trunc)))
    return out


def _hopf4() -> list[Case]:
    rho = staircase(4)
    compare = TruncationProfile.for_degree(sum(rho) + 2)
    # the series is needed |rho| degrees beyond the comparison degree
    ext = TruncationProfile.for_degree(compare.max_degree + sum(rho))
    out = []
    for lam in subpartitions(rho):
        p = TruncationProfile.for_degree(max(sum(lam), 1))
        for mu in subpartitions(lam):
            out.append(Case(len(out), f"skew-g lam={format_partition(lam)} "
                            f"mu={format_partition(mu)}", "skew-g",
                            (lam, mu, p)))
    for mu in subpartitions(rho):
        out.append(Case(len(out), f"skew-G mu={format_partition(mu)}",
                        "skew-G", (rho, mu, ext, compare)))
    return out


def _lattice6() -> list[Case]:
    rho = staircase(6)
    out = []
    for k in range(1, 7):
        row, col = (k,), (1,) * k
        for nu in subpartitions(rho):
            out.append(Case(len(out), f"c k={k} nu={format_partition(nu)}",
                            "c", (nu, row, col, rho)))
        for size in range(sum(rho) - k + 3):
            for nu in sorted(partitions_of(size), key=graded_lex_key):
                out.append(Case(len(out),
                                f"alpha k={k} nu={format_partition(nu)}",
                                "alpha", (rho, row, col, nu)))
    return out


POPULATIONS = {
    "stembridge-g6": lambda: _stembridge("g"),
    "stembridge-G6": lambda: _stembridge("G"),
    "hopf4": _hopf4,
    "lattice6": _lattice6,
}


def population(workload: str) -> list[Case]:
    return POPULATIONS[workload]()


# cases per run of the stembridge workloads; the others replay everything
STEMBRIDGE_CASES = 40


def sample(workload: str, seed: int, pop: list[Case] | None = None) -> list[Case]:
    """The seeded case list of one run, in the suite's canonical order.

    The stembridge workloads take every (429/40)-th case, a sample spread
    evenly over the sizes of mu; the others take every case.  The seed
    decides, case by case, which of the two sides is computed first.  So
    the work of a run does not depend on the seed: a seeded subset of
    these heavy-tailed populations moved a run's time by 20% from seed
    to seed, and a seeded order moved its tail by 10%, through where the
    full garbage collections and the first uses of shared operands fall.
    """
    if pop is None:
        pop = population(workload)
    if workload.startswith("stembridge"):
        step = len(pop) / STEMBRIDGE_CASES
        pop = [pop[int(j * step)] for j in range(STEMBRIDGE_CASES)]
    rng = random.Random(f"{workload}:{seed}")
    return [replace(c, flip=rng.random() < 0.5) for c in pop]


def _sides(case: Case):
    """The case's two library computations, as thunks."""
    a = case.args
    if case.kind in ("g", "G"):
        rho, mu, muc, trunc = a
        poly = gr.dual_g if case.kind == "g" else gr.big_G
        return (lambda: poly(SkewShape(rho, mu), trunc),
                lambda: poly(SkewShape(rho, muc), trunc))
    if case.kind == "skew-g":
        lam, mu, p = a

        def skewed():
            glam = gr.dual_g(SkewShape(lam, EMPTY), p)
            return gr.skew_by(BasisExpansion("G", {mu: 1}, p), glam)

        return skewed, lambda: gr.dual_g(SkewShape(lam, mu), p)
    if case.kind == "skew-G":
        rho, mu, ext, compare = a

        def skewed():
            series = gr.big_G(SkewShape(rho, EMPTY), ext)
            out = gr.skew_by(BasisExpansion("g", {mu: 1}, ext), series)
            return SymFunc({k: c for k, c in out.coeffs.items()
                            if sum(k) <= compare.max_degree}, compare)

        return skewed, lambda: gr.big_G_double(rho, mu, compare)
    if case.kind == "c":
        nu, row, col, rho = a
        return (lambda: gr.lr_coeff(nu, row, rho),
                lambda: gr.lr_coeff(nu, col, rho))
    if case.kind == "alpha":
        rho, row, col, nu = a
        return (lambda: gr.alpha(SkewShape(rho, row), nu),
                lambda: gr.alpha(SkewShape(rho, col), nu))
    raise ValueError(f"unknown case kind {case.kind!r}")


def run_case(case: Case):
    """Make the case's library calls; returns the two sides (lhs, rhs)."""
    left, right = _sides(case)
    if case.flip:
        rhs = right()
        return left(), rhs
    lhs = left()
    return lhs, right()


def holds(lhs, rhs) -> bool:
    if isinstance(lhs, SymFunc):
        return lhs.coeffs == rhs.coeffs
    return lhs.value == rhs.value


def _text(side) -> str:
    if isinstance(side, SymFunc):
        keys = sorted(side.coeffs, key=graded_lex_key)
        return ";".join(f"{format_partition(k)}={side.coeffs[k]}" for k in keys)
    return f"{side.value}^{side.sign_exponent}"


def canonical(case: Case, lhs, rhs) -> str:
    """Both sides' coefficient tables, keys in graded lex order."""
    return f"{case.id}\n{_text(lhs)}\n{_text(rhs)}\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def clear_caches() -> None:
    """Empty every memo of the library so the next pass starts cold.

    Covers ``functools.cache`` functions and module-level dicts named
    ``*_cache``.
    """
    for mod in tracing.library_modules():
        for attr, value in vars(mod).items():
            while not hasattr(value, "cache_clear") and hasattr(
                    value, "__wrapped__"):  # look through trace wrappers
                value = value.__wrapped__
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and attr.endswith("_cache"):
                value.clear()
