"""Smoke run of the demo script under scripts/ on a tiny scenario."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_sweep_round_length_prints_its_table():
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    script = os.path.join(ROOT, "scripts", "sweep_round_length.py")
    proc = subprocess.run(
        [sys.executable, script, "--users", "6", "--budget-cycles", "2", "--fracs", "0.6,1.0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header = ["frac", "tiers", "rounds", "final", "peak", "uplinks", "downlinks"]
    assert header in [line.split() for line in proc.stdout.splitlines()]
