"""Paper experiments print the same numbers under every ``PYTHONHASHSEED``.

String hashing is salted per process, so any result that flows through set
iteration order (or a float sum over a set) changes from one run to the
next.  Only separate interpreters can show that, so each run here is a
subprocess with its own hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

COMMAND = [
    sys.executable, "-m", "repro.experiments.cli",
    "--experiment", "figure12", "--size", "tiny", "--seed", "1",
]


def run_with_hash_seed(hash_seed: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return subprocess.Popen(
        COMMAND, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def test_figure12_output_is_identical_under_every_hash_seed():
    children = [run_with_hash_seed(seed) for seed in range(4)]
    outputs = []
    for child in children:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        outputs.append(stdout)
    assert "Figure 12" in outputs[0]
    assert outputs == [outputs[0]] * len(outputs)
