"""The example scripts and the docs' ``pycon`` examples run as written.

Each ``examples/*.py`` script runs in a fresh interpreter and must exit 0,
and the fenced ``pycon`` blocks of the three docs pages run under
:func:`doctest.testfile` — so a renamed or retired API fails here, not only
in a reader's terminal.
"""

from __future__ import annotations

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
DOCS = ("ARCHITECTURE.md", "PAPER_MAPPING.md", "STATIC_ANALYSIS.md")


def test_examples_exist():
    assert EXAMPLES, "no example scripts found"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]


@pytest.mark.parametrize("name", DOCS)
def test_docs_doctests_pass(name):
    result = doctest.testfile(
        str(REPO_ROOT / "docs" / name), module_relative=False, verbose=False, report=False
    )
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
