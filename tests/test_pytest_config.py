"""The suite's own pytest settings report a failure instead of crashing."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_ALWAYS_FAILS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    # every warning is an error under pyproject.toml, so a warning raised
    # while a plugin reports the failure would stop the session with
    # INTERNALERROR and no FAILED line
    (tmp_path / "test_always_fails.py").write_text(_ALWAYS_FAILS)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_always_fails.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed" in out, out
    assert "INTERNALERROR" not in out, out
