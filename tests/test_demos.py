"""Every demo script runs to completion without writing to standard error,
and prints exactly the bytes it printed when its digest was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallsense

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The directory that holds the wallsense package these tests import.
PACKAGE_ROOT = str(Path(wallsense.__file__).resolve().parents[1])
# sha256 of each demo's standard output. A demo whose narrative is meant
# to change gets its digest regenerated with: python3 demos/<name> | sha256sum
STDOUT_SHA256 = {
    "01_scene_to_profile.py": "00acda28bfb2cbd2f4b37ec4109225565a1f70916211cde6fb71e36fd751d6db",
    "02_reflection_ratio_classes.py":
        "34299fe6d665fe171c61a3d3689914ee1babb914594df4e48f31f6363d5e5108",
    "03_through_wall_watch.py": "3d5fc067fb5ebb9a3763a60156e70e69544f996ce527fbbc961dee472227f1dd",
    "04_safety_tiers.py": "c9e2e76f553f3b5f628f42cde84cd0b5a8d222781c8eb9427504cee7f64be8c9",
}


def test_demos_are_found():
    assert [d.name for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, path])))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
