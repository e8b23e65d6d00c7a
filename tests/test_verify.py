import json

import pytest

from staircase_groth import verify as vf
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
    p = TruncationProfile(2, 2)
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

