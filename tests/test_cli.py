import io
import json

from staircase_groth import verify as vf
from staircase_groth.cli import run


def cli(*argv):
    buf = io.StringIO()
    code = run(list(argv), buf)
    return code, buf.getvalue()


def test_compute_text_matches_worked_example():
    code, out = cli("compute", "--kind", "g", "--shape", "2,2/1",
                    "--vars", "4", "--deg", "4")
    assert code == 0
    assert out.strip() == "m[2]=1 m[1,1]=1 m[2,1]=1 m[1,1,1]=2"


def test_compute_json_round_trips_byte_identical():
    code, out = cli("compute", "--kind", "g", "--shape", "3,2,1/1",
                    "--vars", "6", "--deg", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    assert doc["kind"] == "g"
    assert doc["basis"] == "m"
    assert doc["trunc"] == {"vars": 6, "max_deg": 6}
    assert all(isinstance(c["coeff"], str) for c in doc["coeffs"])


def test_text_and_json_carry_identical_data():
    code_t, text = cli("compute", "--kind", "s", "--shape", "2,1,1/1")
    code_j, js = cli("compute", "--kind", "s", "--shape", "2,1,1/1",
                     "--format", "json")
    assert code_t == code_j == 0
    doc = json.loads(js)
    expected = " ".join(
        f"m[{','.join(map(str, c['partition']))}]={c['coeff']}"
        for c in doc["coeffs"])
    assert text.strip() == expected


def test_compute_kinds():
    code, out = cli("compute", "--kind", "G", "--shape", "1", "--deg", "3")
    assert code == 0
    assert out.strip() == "m[1]=1 m[1,1]=-1 m[1,1,1]=1"
    code, out = cli("compute", "--kind", "G-double", "--shape", "2,1",
                    "--mu", "1", "--deg", "4")
    assert code == 0


def test_compute_empty_result_prints_zero():
    # one-column shape has no semistandard filling in a one-letter alphabet
    code, out = cli("compute", "--kind", "s", "--shape", "1,1",
                    "--vars", "2", "--deg", "2")
    assert code == 0 and out.strip() == "m[1,1]=1"


def test_expand_round_trips():
    code, out = cli("expand", "--kind", "g", "--shape", "2,1", "--target", "g")
    assert code == 0 and out.strip() == "g[2,1]=1"
    code, out = cli("expand", "--kind", "G", "--shape", "2,1", "--deg", "4",
                    "--target", "G")
    assert code == 0 and out.strip() == "G[2,1]=1"
    code, out = cli("expand", "--kind", "s", "--shape", "2", "--target", "e")
    assert code == 0 and out.strip() == "e[2]=-1 e[1,1]=1"
    code, out = cli("expand", "--kind", "s", "--shape", "2", "--target", "h")
    assert code == 0 and out.strip() == "h[2]=1"


def test_coeff_families():
    code, out = cli("coeff", "--family", "c", "--nu", "1", "--mu", "1",
                    "--target", "2,1")
    assert code == 0
    assert out.strip() == "value=1 sign_exponent=1 signed=-1"
    code, out = cli("coeff", "--family", "alpha", "--shape", "2,1/1",
                    "--content", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1" and doc["sign_exponent"] == 0
    assert json.dumps(doc, indent=2) + "\n" == out


def test_usage_errors_exit_2():
    for argv in (
            ("compute", "--kind", "g", "--shape", "2,x"),
            ("compute", "--kind", "g", "--shape", "1,2"),
            ("compute", "--kind", "g", "--shape", "2,1", "--vars", "1",
             "--deg", "3"),
            ("compute", "--kind", "g", "--shape", "2,2/2,2,2"),
            ("compute", "--kind", "G-double", "--shape", "2,1/1", "--mu", "1"),
            ("compute", "--kind", "G-double", "--shape", "2,1"),
            ("compute", "--kind", "g", "--shape", "2,1", "--mu", "1"),
            ("coeff", "--family", "c", "--nu", "1"),
            ("coeff", "--family", "alpha", "--shape", "2,1/1"),
            ("verify", "--suite", "alpha-recurrence"),
            ("verify", "--suite", "no-such-suite"),
            ("verify", "--suite", "stembridge-g", "--n", "9"),
            ("verify", "--suite", "stembridge-G", "--n", "0"),
            ("verify", "--suite", "lattice-rules", "--n", "-1"),
            ("verify", "--suite", "multiply-oracle", "--pairs", "0"),
            ("verify", "--suite", "multiply-oracle", "--pairs", "-3"),
            ("verify", "--suite", "multiply-oracle", "--deg", "9"),
            ("verify", "--suite", "alpha-recurrence", "--n", "3", "--k", "5"),
            ("verify", "--suite", "stembridge-G", "--n", "2",
             "--extra-degrees", "-1"),
            ("verify", "--suite", "basis", "--k-max", "0"),
            ("verify", "--suite", "converse", "--max-size", "0"),
            ("verify", "--suite", "hopf", "--n", "2", "--deg", "1"),
            ("frobnicate",),
    ):
        code, _ = cli(*argv)
        assert code == 2, argv


def test_verify_pass_exits_0():
    code, out = cli("verify", "--suite", "stembridge-g", "--n", "2")
    assert code == 0
    assert "passed: true" in out


def test_verify_failure_exits_1(monkeypatch):
    def fake(n):
        return vf.Report("stembridge-g", [
            vf.Case({"n": n}, "demo", False, {"why": "forced"})])
    monkeypatch.setattr(vf, "verify_stembridge_g", fake)
    code, out = cli("verify", "--suite", "stembridge-g", "--n", "2")
    assert code == 1
    assert "FAIL" in out
    code, out = cli("verify", "--suite", "stembridge-g", "--n", "2",
                    "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_report_json_round_trips():
    code, out = cli("verify", "--suite", "alpha-recurrence", "--n", "2",
                    "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    assert doc["suite"] == "alpha-recurrence"


def test_verify_findings_shown_in_text():
    code, out = cli("verify", "--suite", "alpha-recurrence", "--n", "2",
                    "--k", "1")
    assert code == 0
    assert "findings:" in out
    assert "finding" in out


def test_verify_hopf_include():
    code, out = cli("verify", "--suite", "hopf", "--n", "2",
                    "--include", "duality,adjunction")
    assert code == 0
    code, _ = cli("verify", "--suite", "hopf", "--n", "2",
                  "--include", "bogus")
    assert code == 2


def test_scan_exits_0():
    code, out = cli("scan", "--max-size", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "converse"
    assert doc["passed"] is True


def test_multiply_oracle_suite_cli():
    code, out = cli("verify", "--suite", "multiply-oracle", "--pairs", "5",
                    "--deg", "4", "--seed", "7")
    assert code == 0


def test_verify_usage_errors_print_no_traceback(capsys):
    code, out = cli("verify", "--suite", "stembridge-g", "--n", "9")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == ("error: --suite stembridge-g: staircase index must be "
                   "in 1..6, got 9\n")


def test_empty_report_does_not_pass(monkeypatch):
    monkeypatch.setattr(vf, "verify_stembridge_g",
                        lambda n: vf.Report("stembridge-g", []))
    code, out = cli("verify", "--suite", "stembridge-g", "--n", "2")
    assert code == 1
    assert "passed: false" in out and "cases: 0" in out
    assert not vf.Report("demo", []).passed
