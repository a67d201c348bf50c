"""Every script in demos/ and README's library example run to completion."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_cf_af_boundary_prints_the_measured_table(tmp_path, monkeypatch, capsys):
    # Q* in dB per mu (rows) and P = -10, 0, 10, 20 and 30 dB (columns).
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / "cf_af_boundary.py"), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [["0.8", "-5.2", "-3.5", "0.4", "3.4", "4.2"],
                    ["0.4", "-1.1", "0.2", "2.8", "4.1", "4.3"],
                    ["0", "none", "13.6", "4.8", "4.3", "4.3"]]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert 0.0 < namespace["cf"].rate <= namespace["ceiling"]
