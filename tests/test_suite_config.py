# SPDX-License-Identifier: Apache-2.0
"""The suite's own configuration: under `filterwarnings = ["error"]` a
failing property test still reports its example, and the tests after it
still run."""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_plain():
    pass
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
