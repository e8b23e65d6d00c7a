import hashlib
import json

import pytest

from staircase_groth import grothendieck as gr
from staircase_groth import symfunc as sf
from staircase_groth import tableaux as tb
from staircase_groth import verify as vf
from staircase_groth.shapes import (
    SkewShape,
    classify_strip,
    conjugate,
    partitions_of,
    subpartitions,
)
from staircase_groth.symfunc import SymFunc, TruncationProfile


def test_suites_registry():
    assert set(vf.SUITES) == {
        "stembridge-g", "stembridge-G", "lattice-rules", "alpha-recurrence",
        "basis", "hopf", "converse", "multiply-oracle"}


def test_reports_are_deterministic():
    a = vf.verify_stembridge_g(2)
    b = vf.verify_stembridge_g(2)
    assert [c.inputs for c in a.cases] == [c.inputs for c in b.cases]
    assert [c.holds for c in a.cases] == [c.holds for c in b.cases]
    assert a.to_dict() == b.to_dict()


def test_report_serializes_to_json():
    rep = vf.verify_stembridge_G(2, 2)
    doc = rep.to_dict()
    text = json.dumps(doc, indent=2)
    assert json.loads(text) == doc
    assert doc["suite"] == "stembridge-G"
    assert doc["passed"] is True
    assert all(c["witness"] is None for c in doc["cases"])


def test_sym_witness_payload():
    p = TruncationProfile(2)
    lhs = SymFunc({(1,): 1, (2,): 2}, p)
    rhs = SymFunc({(1,): 1, (1, 1): 5}, p)
    w = vf._sym_witness(lhs, rhs)
    assert w == {"differing_coefficients": [
        {"partition": [2], "lhs": "2", "rhs": "0"},
        {"partition": [1, 1], "lhs": "0", "rhs": "5"}]}
    assert vf._sym_witness(lhs, lhs) is None


def test_failing_case_carries_witness():
    rep = vf.Report("demo", [vf.Case({"x": 1}, "r", False, {"why": "because"})])
    assert not rep.passed
    assert rep.cases[0].witness is not None


def test_stembridge_suites_pass():
    assert vf.verify_stembridge_g(3).passed
    assert vf.verify_stembridge_G(2, 3).passed


def test_stembridge_bounds_checked():
    with pytest.raises(ValueError):
        vf.verify_stembridge_g(0)
    with pytest.raises(ValueError):
        vf.verify_stembridge_g(9)
    with pytest.raises(ValueError):
        vf.verify_stembridge_G(2, -1)


def test_lattice_rules_pass():
    rep = vf.verify_lattice_rules(3)
    assert rep.passed
    relations = {c.relation for c in rep.cases}
    assert len(relations) == 3


def test_alpha_recurrence_findings():
    rep = vf.verify_alpha_recurrence(2, 1, refined=True)
    assert rep.passed  # stratified variant gates; literal stays a finding
    disagreements = [c for c in rep.cases
                     if c.finding and not c.finding["agrees"]]
    assert disagreements, "documented discrepancy must be recorded"
    small = [c for c in disagreements
             if c.inputs["nu"] == "1,1" and c.inputs["mu"] == "1"]
    assert small
    assert small[0].finding["lhs"] == "1"
    assert small[0].finding["rhs"] == "2"


def test_alpha_recurrence_literal_only():
    rep = vf.verify_alpha_recurrence(2, 1, refined=False)
    assert rep.passed
    assert all(c.finding is not None for c in rep.cases)


def test_alpha_recurrence_validates_arguments():
    with pytest.raises(ValueError):
        vf.verify_alpha_recurrence(2, 2)
    with pytest.raises(ValueError):
        vf.verify_alpha_recurrence(1, 1)


def test_basis_identities_pass():
    rep = vf.verify_basis_identities(2, 4)
    assert rep.passed
    with pytest.raises(ValueError):
        vf.verify_basis_identities(3, 2)


def _filtered_strips(lam, k):
    """The nu inside lam of size |lam| - k whose lam/nu classify_strip
    calls horizontal, in ascending lex order."""
    return sorted(nu for nu in subpartitions(lam) if sum(nu) == sum(lam) - k
                  and classify_strip(SkewShape(lam, nu)).horizontal)


def test_pieri_strips_match_interlacing():
    for size in range(9):
        for lam in partitions_of(size):
            for k in range(size + 2):
                assert vf._pieri_hstrips(lam, k) == \
                    _filtered_strips(lam, k), (lam, k)
                assert vf._pieri_vstrips(lam, k) == [
                    conjugate(nu) for nu in
                    _filtered_strips(conjugate(lam), k)], (lam, k)


def test_hopf_pieces_selectable():
    rep = vf.verify_hopf(2, include=("duality",))
    assert rep.passed
    assert {c.relation for c in rep.cases} == {"<G_lam, g_mu> == delta"}
    with pytest.raises(ValueError):
        vf.verify_hopf(2, include=("nonsense",))
    with pytest.raises(ValueError):
        vf.verify_hopf(2, max_degree=1)


def test_converse_scan_small():
    rep = vf.converse_scan(6)
    assert rep.passed
    passing = [c.inputs["lam"] for c in rep.cases
               if c.inputs["expected_staircase"]]
    assert passing == ["", "1", "2,1", "3,2,1"]


def test_multiply_oracle_seeded():
    a = vf.verify_multiply_oracle(10, 5, seed=42)
    b = vf.verify_multiply_oracle(10, 5, seed=42)
    assert a.passed and b.passed
    assert [c.inputs for c in a.cases] == [c.inputs for c in b.cases]
    c = vf.verify_multiply_oracle(10, 5, seed=43)
    assert [x.inputs for x in a.cases] != [x.inputs for x in c.cases]


# Every suite's failing branch, reached by making one library call wrong.
# The digest pins the whole report, witnesses and findings included.
def _scaled_by_inner(real):
    # conjugate inner shapes of different lengths now disagree
    return lambda shape, trunc: real(shape, trunc).scale(1 + len(shape.inner))


def _count_plus(real, extra):
    return lambda *args: gr.SignedCount(real(*args).value + extra(*args), 0)


def _all_ones_unless_last_row_2(real):
    # every cell {1} unless the lower block ends in a row of two cells:
    # at k = 2 only the column side breaks, at k = 3 both sides do and the
    # row side is reported.  Rows past the first break the upper block,
    # and two lower cells repeat a value.
    def fillings(shape, content):
        if shape.outer[-1] == 2:
            return real(shape, content)
        return iter([{c: (1,) for c in shape.cells()}])
    return fillings


FAILURES = {
    "stembridge-g": (
        lambda: vf.verify_stembridge_g(3), gr, "dual_g",
        _scaled_by_inner,
        "7853f63cd4192023e04cbbe21aa486a949205140790a3e3bec1314d9f685da9b"),
    "stembridge-G": (
        lambda: vf.verify_stembridge_G(3, 1), gr, "big_G",
        _scaled_by_inner,
        "929cc8a0305897fa57c41d262bc1990d8c5092fe7aa27e9626c806924312539c"),
    "lattice-c": (
        lambda: vf.verify_lattice_rules(3), gr, "lr_coeff",
        lambda real: _count_plus(real, lambda nu, mu, target: len(mu)),
        "292232b073734366a044bde28d6a1c91fd90319bf1f77f1ad93ea1cd58c25054"),
    "lattice-alpha": (
        lambda: vf.verify_lattice_rules(3), gr, "alpha",
        lambda real: _count_plus(real, lambda shape, c: len(shape.inner)),
        "a335d162d5676f93400d8f9a50f1ec97d99ddfc83194e1b65cd99add7d264fcd"),
    "lattice-structure": (
        lambda: vf.verify_lattice_rules(3), tb, "iter_lattice_fillings",
        _all_ones_unless_last_row_2,
        "1304c007ab92b01943d54622c4a5b47c2ecf800a18760f02f7e8808659ba107d"),
    "alpha-recurrence": (
        lambda: vf.verify_alpha_recurrence(3, 2), gr, "alpha",
        lambda real: _count_plus(real, lambda shape, c: len(shape.inner)),
        "261f688ad8bb8eaedb983636e28e5cf07c5845c8b4afc8d2275f2584f61d266e"),
    "basis-elements": (
        lambda: vf.verify_basis_identities(2, 4), sf, "basis_element",
        lambda real: lambda *a: real(*a).scale(2),
        "9c8444dfbfee22d22b043e010b68b26f39304453d598621c745f0ef74f0d6ced"),
    "basis-pieri": (
        lambda: vf.verify_basis_identities(2, 4), vf, "_pieri_vstrips",
        lambda real: lambda *a: real(*a)[1:],
        "a196b0b33c106c64c7f4d127e08e4e1db892bf74d2cb9c571e6eaabeba5ee2ff"),
    "hopf-split": (
        lambda: vf.verify_hopf(2, include=("delta-g",)), sf,
        "split_alphabets", lambda real: lambda *a: {**real(*a), ((), (9,)): 1},
        "6f3af2ad6e5d8b928530767638e6e7367beb254e5b3848df9ba399ad2b977705"),
    "hopf-skew": (
        lambda: vf.verify_hopf(2, include=("skew-g", "skew-G", "ek-tau")),
        gr, "skew_by",
        lambda real: lambda f, a: real(f, a).scale(1 + len(f.coeffs)),
        "6322a0f42652bcff4fb4bb3d8fe76b60fe3319ad052152880d7f365fef58f64c"),
    "hopf-double": (
        lambda: vf.verify_hopf(2, include=("double-sum", "double-conj")),
        gr, "big_G_double",
        lambda real: lambda rho, mu, p: real(rho, mu, p).scale(1 + len(mu)),
        "f0a6473faa06e806a394fad5813d18592e152e822d0741ab60312492f869db41"),
    "hopf-inner": (
        lambda: vf.verify_hopf(2, include=("adjunction", "duality")),
        sf, "hall_inner", lambda real: lambda *a: real(*a) + 1,
        "239e4a7468e2d00f3746b00af6a710d4f3dbdf2d228e803febd3738ef4f8d83c"),
    "converse": (
        lambda: vf.converse_scan(6), vf, "_pieri_vstrips",
        lambda real: lambda *a: real(*a)[1:],
        "f43e80f5c289ad74478ad4bb90ae54d4c3b0430b2477e7f048e0018dd9829ff9"),
    "multiply-oracle": (
        lambda: vf.verify_multiply_oracle(20, 4), sf, "multiply",
        lambda real: lambda f, g: real(f, g).scale(2),
        "32bfe327172b68cfe49056d6def5b8f2fb06c0b607256397fe055eb4bff1f138"),
}
# witness fields that only some failing branches write
REACHED = {
    "lattice-c": ('"shape_lhs"', '"shape_rhs"'),
    "lattice-structure": ('"violation": "upper block row holds more than {i}"',
                          '"violation": "lower block repeats a value"'),
    "converse": ('"first_failing_k"', '"horizontal_complements"'),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failing_suites_pin_their_witnesses(name, monkeypatch):
    suite, module, attr, wrong, digest = FAILURES[name]
    monkeypatch.setattr(module, attr, wrong(getattr(module, attr)))
    report = suite()
    assert not report.passed
    text = json.dumps(report.to_dict(), indent=2)
    for field in REACHED.get(name, ()):
        assert field in text
    assert hashlib.sha256(text.encode()).hexdigest() == digest
