import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from staircase_groth import cli as cli_module
from staircase_groth import verify as vf
from staircase_groth.cli import run


def cli(*argv):
    buf = io.StringIO()
    code = run(list(argv), buf)
    return code, buf.getvalue()


def test_compute_text_matches_worked_example():
    code, out = cli("compute", "--kind", "g", "--shape", "2,2/1",
                    "--deg", "4")
    assert code == 0
    assert out.strip() == "m[2]=1 m[1,1]=1 m[2,1]=1 m[1,1,1]=2"


def test_compute_json_round_trips_byte_identical():
    code, out = cli("compute", "--kind", "g", "--shape", "3,2,1/1",
                    "--deg", "6", "--format", "json")
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
    # every term of G(2,1) has degree at least 3, so the cap 2 keeps none
    code, out = cli("compute", "--kind", "G", "--shape", "2,1", "--deg", "2")
    assert code == 0 and out == "0\n"
    code, out = cli("compute", "--kind", "G", "--shape", "2,1", "--deg", "2",
                    "--format", "json")
    assert code == 0 and json.loads(out)["coeffs"] == []


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
            ("verify", "--suite", "multiply-oracle", "--deg", "0"),
            ("verify", "--suite", "basis", "--n", "2"),
            ("verify", "--suite", "converse", "--n", "3"),
            ("verify", "--suite", "stembridge-g", "--n", "2", "--pairs", "3"),
            ("verify", "--suite", "stembridge-g", "--literal-only"),
            ("scan", "--max-size", "0"),
            ("verify", "--suite", "hopf", "--include", ""),
            ("verify", "--suite", "hopf", "--include", ","),
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


def test_deep_lattice_searches_exit_2_without_traceback(capsys):
    # unchecked, a one-row search of 500 cells overflows the interpreter
    # stack
    for argv in (("coeff", "--family", "alpha", "--shape", "600",
                  "--content", "600"),
                 ("coeff", "--family", "c", "--nu", "400", "--mu", "400",
                  "--target", "800")):
        code, out = cli(*argv)
        assert code == 2 and out == "", argv
        err = capsys.readouterr().err
        assert "depth bound" in err and "Traceback" not in err, argv


def test_vars_is_not_an_option(capsys):
    # a profile is its degree cap: no command takes a variable count
    for argv in (("compute", "--kind", "g", "--shape", "2,1", "--vars", "4"),
                 ("expand", "--kind", "g", "--shape", "2,1", "--target", "h",
                  "--vars", "4")):
        code, out = cli(*argv)
        assert code == 2 and out == "", argv
        err = capsys.readouterr().err
        assert "unrecognized arguments: --vars 4" in err, argv
        assert "Traceback" not in err, argv


def test_closed_output_exits_1_without_traceback():
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    assert run(["verify", "--suite", "stembridge-g", "--n", "2"],
               ClosedPipe()) == 1
    # the real entry point: the reader is gone before anything is written
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "staircase_groth", "verify", "--suite", "hopf",
         "--n", "2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        # a hang fails the test instead of stalling the run
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    err = err.decode()
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_empty_report_does_not_pass(monkeypatch):
    monkeypatch.setattr(vf, "verify_stembridge_g",
                        lambda n: vf.Report("stembridge-g", []))
    code, out = cli("verify", "--suite", "stembridge-g", "--n", "2")
    assert code == 1
    assert "passed: false" in out and "cases: 0" in out
    assert not vf.Report("demo", []).passed


def test_suite_flags_reach_every_keyword_with_readme_defaults():
    # README's suite table lists each suite's flags, with the default
    # where it is a number; it must agree with the suite signatures
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| suite | flags (default) |")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table, re.M))
    assert set(rows) == set(vf.SUITES)
    for name, suite in vf.SUITES.items():
        params = inspect.signature(suite).parameters
        keys = {}
        for flag, default in re.findall(r"`(--[\w-]+)(?: (\d+))?`", rows[name]):
            key = cli_module._SUITE_FLAGS[flag][0]
            keys[key] = default
            if default:
                assert params[key].default == int(default), (name, flag)
        assert set(keys) == set(params), name


# SHA-256 of stdout (json, then text) for cheap commands covering every
# compute kind, every expand target, every verify suite (with and without
# its defaults) and scan, recorded before the CLI dispatch was rewritten.
GOLDEN = (
    ("compute --kind s --shape 3,2/1",
     "bd95bd676e67c1c6f19039468e0b17da692856b86ee45191e69167be49717f91",
     "5afd1d0bbe4bdbd0cce67ab417363085f370750b054fa02d114fce834a01ac6a"),
    ("compute --kind g --shape 3,2,1/1",
     "698fe2ff54240ed2df7e8c36b31dffd655dc403d87ccd8d180480f529ec37a1f",
     "5e80b6d17d7f87bd02f237450bb2f150a9eedd2121cd3e312c64cfe20414157d"),
    ("compute --kind G --shape 2,1 --deg 5",
     "045abe868d14302c1319d8068b522866dd35615c140d158eb3f18a727965fc64",
     "ede46a36187ebe2c822f52b877ab9c8b5c96e638d664b931f5acbaf0f5399779"),
    ("compute --kind G-double --shape 3,2,1 --mu 2 --deg 7",
     "9722ed65196a8cdd8191852c67b2d81dbd12b0bd2c026453a32422909fcb013a",
     "9e86acee6c1154274fcbbeb1a94d507f60643996d8c0940f6e67421b6e58bdbf"),
    ("expand --kind g --shape 2,2/1 --target s",
     "6d937e45b1f94be31e64835f93a2441533d39b3b09f19b9cf88d10ead8561824",
     "f0682db5759bf13cc09362d42a321a1a00f378e977d80c64cd09f3f34d0179be"),
    ("expand --kind g --shape 2,2/1 --target g",
     "34c25d64ae4174b7e6e50ec1803e12198eab0d377f65d62bcd585534c30ffd3e",
     "36f926a696674fce0e4485f2689b8ae4a4b24e6f6ee09113158df0a83bbd432a"),
    ("expand --kind s --shape 3,1 --target G --deg 5",
     "35a29a279d359c699787b52b75f6480cd5e46c6464e8d7a2897e37fea99322a4",
     "b6c84ff37039ecf8f61bf54b7d201f1921198667981040c4fc481f8b9296e76a"),
    ("expand --kind G --shape 2,1 --deg 5 --target G",
     "0c7acc0fb566b37534ac686fdbf02961e61c2278230540693b5f657b56e51108",
     "a9d98c16feb1b00ef84ca45fdb16263389cf633684bce2f1d4c91e43b976d804"),
    ("expand --kind s --shape 2,1 --target e",
     "d2927402848dbc93f139a2a2d1444d29a226f170b35f5d4954cab1d4d8c3db85",
     "661ca58a3432fcbb528e33047891c9b32e972ffa1e9f88370b708792e408fae3"),
    # JSON re-recorded when --vars was retired: "vars" now reads the cap, 3
    ("expand --kind g --shape 2,1 --target h",
     "beca329bc3fa1662bf134c998c759eb39e0aa837b94926efebed64ab3b5c3ce5",
     "35735b14be661644f8c0493dc621ff2e8afd41533e6779e00d1807f49bcaedeb"),
    # dense h and e targets: G spans degrees 10 to 14 and g degrees 5 to
    # 15, with many keys in each degree
    ("expand --kind G --shape 4,3,2,1 --deg 14 --target h",
     "342a321c9df71c08ecdb3ba6043f9a9525205cb411ff688f58884ab3daa91dfd",
     "329cc30e2560dcb2ac3a6aee54dab690d3f47d787272d86ecfb4972942780aad"),
    ("expand --kind g --shape 5,4,3,2,1 --target e",
     "499610b591494ac26e4a40c8d18c4d933ebff32ced7c442ed3a16ee2cabe17bc",
     "c37b55b9b8614419a272b6edb5b40e8cd4611b607673b50d11f9686566dc6e9a"),
    ("coeff --family c --nu 1 --mu 1 --target 2,1",
     "1d99f5d3a69d2e5a9be0d1772505744aed085fab121ebda421a7a3d026e1659b",
     "7034b1b18f866f0c7018f47f21cdfc76f7808924d43add45b1b40fac1d6cb55a"),
    ("coeff --family alpha --shape 3,2,1/1 --content 3,1,1",
     "e9b939078d756f17d83e61bdbbe41d38329d5c31891474bff24272b62666b305",
     "56b2cb57ab368a404053fbf5ad8588ea27cd08ad20edf33615953328a1de41bc"),
    # a content two boxes larger than the shape, and one smaller (zero)
    ("coeff --family alpha --shape 3,2,1/2 --content 3,2,1",
     "be4f6c40b42f09e34683255f1833571a883a2d05eced4b54dafcd4c2bf98580c",
     "eaeb29d2d1a641011711fdcfcfaf2ee4794ba474fa29ee167e58b797c2eabdbd"),
    ("coeff --family alpha --shape 3,2,1/1 --content 2,1",
     "ac9b0cbe1da6e4b1f05a60c28ada70aea06ea2075b9a451a23ef174d4e766e84",
     "03212b691b5c2eb7293eefb472de1add5de4458b56f6866343c6be4e94f809b7"),
    ("verify --suite stembridge-g",
     "abc189ee30c04bdfcf38916d00fe844ca3991feeecfc6b3f7c3938a2fa39fecf",
     "3ac21f21ca0e2c4ded810e4daabb81fdc2b354ecdf0fc8a98f456b1a8632e6a9"),
    ("verify --suite stembridge-G",
     "dc094d4bf01977fd216de7d7434441b7ab1897c0799baca58815e6e5d8724f04",
     "7ff3625e9ac3813dd6fe2394940e328f06acdacb450b23fc5f2712ec898b6000"),
    # the full n=6 sweeps, which read the backward chain tables
    ("verify --suite stembridge-g --n 6",
     "47325b2b312eb9df3d03042339ef39d26d5749ae0df848a80655977d25928651",
     "ae9241836dde145c7fef5cc483ef134eab4b886d1fb053d53ed123f329b2dba6"),
    ("verify --suite stembridge-G --n 6",
     "3c46f4637f67a5ed4c4c56a1804673d7d4af7ad38f5812f0d348faf1cb9b42a1",
     "457f4b4124a093cfb6b63d29aae968c64c48b9139cbbfec7d780f0702172dc08"),
    ("verify --suite stembridge-G --n 2 --extra-degrees 1",
     "343842e3ae72fe3850390a83c2c2392fc22150d7a2b857e2f22b5589c2e82988",
     "12d06c7f1c30b247599cf3fb81e59c4c5fbb6452783b997ba20c251675e528e3"),
    ("verify --suite lattice-rules",
     "d89adf8a4720d098b5d8bed9f99f8779e7b129704166fcd2c2eb5b50ae878a87",
     "772a99404316cfb6b354cce450f5f3cb381657044c4a414d1c77ff260f61b858"),
    ("verify --suite alpha-recurrence --k 1",
     "bb3963fa134af7dd09b58e9210c38c1061b0ca72a67dea958983269bab75ca1c",
     "93df353b484181f63c5bc2356a43fcd907cd2fb491bb648380d023415cf2687a"),
    ("verify --suite alpha-recurrence --n 3 --k 2 --literal-only",
     "659174e23122393460a5c3784c7c8b4cf7429dd10a65708758aebe35ab6956ce",
     "2293d9d841bd8bb8a2e7a18457bedce867578cfa704df7bb187a87a31b16052a"),
    ("verify --suite basis",
     "e61200a8b08acf1044decfc6c05e1d0e9f9acd4d388546b931fdcb86845e2e9c",
     "f8d4de3ca7c7bbfa65f1f92e65c6144816c3ab2e0cd3ccc6d977bc9f49e9baf0"),
    ("verify --suite basis --k-max 2 --deg 3",
     "3c4f7c90de30a6e5da9050b351e462409b2a771cff48dc73f3905fbf93889428",
     "8ee63a98cc082b27816e9414e89d580f34af74a8cc5a9fda45f209f38358eab8"),
    ("verify --suite hopf --n 2",
     "30f2f1ae51b1c050a5afb4417df102c0dc200b34498a59409ba388529dbf5741",
     "788d609fb05bc59b709933591d4de47856ee4badeb7a50960c96a962daf93481"),
    ("verify --suite hopf --n 3",
     "d59c49a78941a169573e88415f1f47ac8f7949b68fc42072ff5b7e11a74c93e1",
     "19fb87621238f9a342094ac10150fa90087ba0c00bcd803340e9344718f24b9f"),
    ("verify --suite hopf --n 2 --deg 5 --include skew-G,double-sum,ek-tau",
     "d07183a3f81bda7cb1d385cab4cb28243c83c099dcb66e99f5bb288aa90ed3fe",
     "57131e80b6fc085437c61252d51a893b1416c2cd2da2f1cde50472063d197741"),
    ("verify --suite converse",
     "25c5d74270b6a13b2f2d8ddea84b36f80055ae4c6c6ca80da12b34b0231c7d08",
     "34164a3173e29c25f314917cbc92816bd73f74a457259ef5dab5ccc6db0fb988"),
    ("verify --suite multiply-oracle --pairs 3",
     "8dd88ed4c5b52a5528a6021441c9836465e60461ae50e5fe0f3025a739627328",
     "e401a4d1024a22acbc051f9bdbd6d34de0b4afe57fe016bb161ef7c78b5151c8"),
    ("verify --suite multiply-oracle --pairs 6 --deg 4 --seed 7",
     "bce96e938de6bcfbac3149cd74d8d2961d5a865957581cd1ea18743e9d5b1d6e",
     "dee8a21b1d0c8a5bf69abf025c8352281590724c5baeb10e1f10e3e95b9fc8b0"),
    ("scan",
     "25c5d74270b6a13b2f2d8ddea84b36f80055ae4c6c6ca80da12b34b0231c7d08",
     "34164a3173e29c25f314917cbc92816bd73f74a457259ef5dab5ccc6db0fb988"),
    ("scan --max-size 7",
     "2b011f8781205402cb52ac002d58ec1faa65a62fda57184d77f2629b62ca524a",
     "dfe7ffa581cfb446928138a74e824b405ad56b24127a8b38a864edf3e75721c0"),
)


def test_golden_output_is_byte_identical():
    for argv, *digests in GOLDEN:
        for fmt, digest in zip(("json", "text"), digests):
            code, out = cli(*argv.split(), "--format", fmt)
            assert code == 0, (argv, fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (argv, fmt)


@pytest.mark.slow
def test_hopf_n5_json_is_byte_identical():
    # 6.3-8.4 s and 131 MB (pytest's peak RSS) over three runs on 2
    # vCPUs; deselected unless run with -m slow
    code, out = cli("verify", "--suite", "hopf", "--n", "5",
                    "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "040f809813963c3722c3d32ddd718689101d1186bc8c61a9ffab840208a6916f"
