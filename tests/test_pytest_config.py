"""The repo's pytest settings let a failing property report its example and
fail a run that uses an unregistered marker."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""

UNREGISTERED_MARKER = """\
import pytest


@pytest.mark.slwo
def test_marked():
    pass
"""


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-c",
            os.path.join(ROOT, "pyproject.toml"),
            "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_unregistered_marker_fails_the_run(tmp_path):
    (tmp_path / "test_marked.py").write_text(UNREGISTERED_MARKER)
    config = os.path.join(ROOT, "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config]
        + ["test_marked.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode != 0, out
    # the strict-markers error, not the unknown-mark warning turned into one
    assert "'slwo' not found in `markers` configuration option" in out
