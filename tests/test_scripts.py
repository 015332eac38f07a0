"""Smoke runs of the demo scripts under scripts/ on tiny scenarios."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script,args,header",
    [
        (
            "compare_algorithms.py",
            ["--users", "6", "--rounds", "2", "--max-evals", "5"],
            ["algorithm", "final", "peak", "msgs@0.9", "uplinks", "downlinks"],
        ),
        (
            "sweep_round_length.py",
            ["--users", "6", "--budget-cycles", "2", "--fracs", "0.6,1.0"],
            ["frac", "tiers", "rounds", "final", "peak", "uplinks", "downlinks"],
        ),
    ],
)
def test_script_prints_its_table(script, args, header):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in [line.split() for line in proc.stdout.splitlines()]
