"""Every demo script runs to completion without writing to standard error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallsense

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The directory that holds the wallsense package these tests import.
PACKAGE_ROOT = str(Path(wallsense.__file__).resolve().parents[1])


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, path])))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
