"""Shared test setup: child interpreters import the package from this checkout."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    """Put ``src/`` first on ``PYTHONPATH`` for the whole session.

    Tests that spawn ``python -m thermomeas`` or a demo inherit it, so they
    run this checkout whether or not the package is installed.
    """
    before = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, before) if p)
    yield
    if before is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = before
