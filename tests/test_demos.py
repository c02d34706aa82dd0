"""Every demo runs to completion from the repository root and leaves no
files behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW_DEMOS = {"one_day_survival.py"}   # about 7 s: one simulated day


def _tree():
    paths = set()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = [x for x in dirs if x != ".git"]
        paths.update(os.path.join(d, f) for f in files)
    return paths


@pytest.mark.parametrize("demo", [
    pytest.param(p.name, marks=pytest.mark.slow) if p.name in SLOW_DEMOS
    else p.name
    for p in sorted((ROOT / "demos").glob("*.py"))
])
def test_demo_runs_clean(demo):
    before = _tree()
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, f"demos/{demo}"], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert _tree() == before
