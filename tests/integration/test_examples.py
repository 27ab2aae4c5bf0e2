"""Every example script runs to completion, quietly, on the current API.

Each ``examples/*.py`` runs in a fresh interpreter with deprecation warnings
turned into errors, so an example that drifts onto a retired or deprecated
call fails here instead of rotting unnoticed.  A clean run exits 0 and
writes nothing to stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
