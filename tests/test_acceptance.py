"""Acceptance battery: every criterion at its stated bounds and
tolerance (all exact), one test and one printed verdict line each."""

import time

import pytest

from staircase_groth import grothendieck as gr
from staircase_groth import verify as vf
from staircase_groth.shapes import (
    EMPTY,
    SkewShape,
    staircase,
    star_join,
    subpartitions,
)
from staircase_groth.symfunc import TruncationProfile

import fillings


def _verdict(name, ok, started, detail=""):
    elapsed = time.time() - started
    suffix = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s){suffix}")
    assert ok, name


@pytest.fixture(scope="module")
def lattice_reports():
    return {n: vf.verify_lattice_rules(n) for n in range(1, 5)}


def test_criterion_01_stembridge_for_g():
    t0 = time.time()
    ok = True
    cases = 0
    for n in range(1, 5):
        rep = vf.verify_stembridge_g(n)
        ok = ok and rep.passed
        cases += len(rep.cases)
        assert len(rep.cases) == len(subpartitions(staircase(n)))
    _verdict("1 stembridge-g n=1..4 exact", ok, t0, f"[{cases} cases]")


def test_criterion_02_stembridge_for_G():
    t0 = time.time()
    ok = True
    cases = 0
    for n in range(1, 4):
        rep = vf.verify_stembridge_G(n, extra_degrees=3)
        ok = ok and rep.passed
        cases += len(rep.cases)
    _verdict("2 stembridge-G n=1..3 at |shape|+3", ok, t0, f"[{cases} cases]")


def test_criterion_03_worked_examples():
    t0 = time.time()
    p3 = TruncationProfile(3)
    ok = gr.schur(SkewShape((2, 1, 1), (1,)), p3).coeffs == \
        {(2, 1): 1, (1, 1, 1): 3}
    ok = ok and gr.dual_g(SkewShape((2, 2), (1,)), p3).coeffs == \
        {(2,): 1, (1, 1): 1, (2, 1): 1, (1, 1, 1): 2}
    display = fillings.SetFilling(SkewShape((5, 4, 3), (2, 1)), {
        (1, 3): (1, 2), (1, 4): (2, 3, 4), (1, 5): (7,),
        (2, 2): (3,), (2, 3): (3, 5), (2, 4): (5,),
        (3, 1): (2,), (3, 2): (4, 5, 6), (3, 3): (6,)})
    ok = ok and fillings.reverse_reading_word(display) == \
        (7, 4, 3, 2, 5, 2, 1, 5, 3, 6, 3, 6, 5, 4, 2)
    ok = ok and fillings.is_lattice((1, 1, 2, 1, 3, 2, 2))
    ok = ok and not fillings.is_lattice((1, 2, 1, 2, 2, 1))
    joined = star_join((2, 1), (4,))
    ok = ok and (joined.outer, joined.inner) == ((6, 5, 4), (4, 4))
    _verdict("3 worked examples reproduced exactly", ok, t0)


def test_criterion_04_c_equality(lattice_reports):
    t0 = time.time()
    ok = True
    cases = 0
    for n in range(1, 5):
        rep = lattice_reports[n]
        c_cases = [c for c in rep.cases if c.relation.startswith("c(rho_n")]
        assert c_cases
        cases += len(c_cases)
        ok = ok and all(c.holds for c in c_cases)
    _verdict("4 c-equality row vs column, n=1..4", ok, t0, f"[{cases} cases]")


def test_criterion_05_alpha_equality_and_G_row_column(lattice_reports):
    t0 = time.time()
    ok = True
    cases = 0
    for n in range(1, 5):
        rep = lattice_reports[n]
        a_cases = [c for c in rep.cases if c.relation.startswith("alpha(")]
        assert a_cases
        cases += len(a_cases)
        ok = ok and all(c.holds for c in a_cases)
    for n in range(1, 4):
        rho = staircase(n)
        for k in range(1, n + 1):
            trunc = TruncationProfile.for_degree(sum(rho) - k + 3)
            lhs = gr.big_G(SkewShape(rho, (k,)), trunc)
            rhs = gr.big_G(SkewShape(rho, (1,) * k), trunc)
            cases += 1
            ok = ok and lhs.coeffs == rhs.coeffs
    _verdict("5 alpha equality n<=4 and G row/column n<=3", ok, t0,
             f"[{cases} cases]")


def test_criterion_06_basis_identities():
    t0 = time.time()
    rep = vf.verify_basis_identities(4, 7)
    relations = {c.relation for c in rep.cases}
    ok = rep.passed and len(relations) == 5
    gh = [c for c in rep.cases if c.relation == "g(k) == h_k"]
    ok = ok and {c.inputs["k"] for c in gh} >= set(range(1, 7))
    pieri = [c for c in rep.cases if "strips" in c.relation]
    ok = ok and len(pieri) == 2 * 4 * 70  # both orientations, k<=4, 70 shapes
    _verdict("6 basis identities at D=7 with Pieri over the 4x4 box",
             ok, t0, f"[{len(rep.cases)} cases]")


def test_criterion_07_hopf_suite():
    t0 = time.time()
    ok = True
    cases = 0
    for n in range(1, 4):
        rep = vf.verify_hopf(n)  # all pieces, D = |rho_n| + 2
        ok = ok and rep.passed
        cases += len(rep.cases)
    rep = vf.verify_hopf(4, include=(
        "delta-g", "skew-g", "ek-tau", "adjunction", "duality"))
    ok = ok and rep.passed
    cases += len(rep.cases)
    _verdict("7 hopf suite (comultiplication, skewing, duality)", ok, t0,
             f"[{cases} cases]")


def test_criterion_08_converse_scan():
    t0 = time.time()
    rep = vf.converse_scan(12)
    passing = sorted(
        (c.inputs["lam"] for c in rep.cases if c.inputs["expected_staircase"]),
        key=len)
    ok = rep.passed and passing == ["", "1", "2,1", "3,2,1", "4,3,2,1"]
    _verdict("8 converse scan up to size 12", ok, t0,
             f"[{len(rep.cases)} shapes]")


def test_criterion_09_alpha_recurrence_findings():
    t0 = time.time()
    ok = True
    saw_documented_discrepancy = False
    agreements = disagreements = 0
    for n in range(2, 5):
        for k in range(1, n):
            rep = vf.verify_alpha_recurrence(n, k, refined=True)
            ok = ok and rep.passed  # (c) stratified variant gates
            for c in rep.cases:
                if c.finding is None:
                    continue
                if c.finding["agrees"]:
                    agreements += 1  # (a) literal confirmed where it holds
                else:
                    disagreements += 1
                    if (n, k) == (2, 1) and c.inputs["nu"] == "1,1" \
                            and c.inputs["mu"] == "1":
                        # (b) the documented small case, with its payload
                        saw_documented_discrepancy = (
                            c.finding["lhs"] == "1" and c.finding["rhs"] == "2")
    ok = ok and saw_documented_discrepancy and agreements and disagreements
    _verdict("9 alpha recurrence findings (literal vs stratified)", ok, t0,
             f"[literal agrees {agreements}, disagrees {disagreements}]")


def test_criterion_10_multiply_oracle():
    t0 = time.time()
    rep = vf.verify_multiply_oracle(100, 6, seed=vf.DEFAULT_SEED)
    ok = rep.passed and len(rep.cases) == 100
    _verdict("10 multiply agrees with dense expansion on 100 seeded pairs",
             ok, t0)
