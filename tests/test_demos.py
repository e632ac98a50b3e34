"""Every demo script, and README's library quick start, runs to completion against the
current package."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def readme_quick_start() -> str:
    """The ```python block of README's "Library quick start" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start")[1]
    return section.split("```python\n")[1].split("```")[0]


def test_readme_quick_start_runs():
    code = readme_quick_start()
    assert "import thermomeas" in code
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
