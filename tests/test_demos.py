"""Every demo script runs to completion against the source tree."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs(path):
    path_var = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path_var)
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
