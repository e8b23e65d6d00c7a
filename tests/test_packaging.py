import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_test_extra_and_ci_pin_the_same_versions():
    # tests/conftest.py patches a private hook of hypothesis 6.155, and
    # every derandomized draw depends on it: `pip install -e .[test]` and
    # the CI workflow must install the same versions
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    extra_pins = re.findall(r'"([^"]*)"', extra)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    installs = re.findall(r"pip install (.*)$", workflow, re.M)
    assert len(installs) == 1
    ci_pins = installs[0].split()
    assert all(re.fullmatch(r"[\w-]+==[\w.]+", pin) for pin in extra_pins)
    assert sorted(extra_pins) == sorted(ci_pins)
    assert {pin.split("==")[0] for pin in extra_pins} == {"pytest", "hypothesis"}
