"""tools/linecov.py on a toy package: one test per outcome, each a fast subprocess."""

import subprocess
import sys
from pathlib import Path

LINECOV = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"

TOY = '''\
def sign(x):
    if x > 0:
        return "positive"
    return "other"
'''


def _run(tmp_path, test_body):
    (tmp_path / "toy").mkdir()
    (tmp_path / "toy" / "__init__.py").write_text("")
    (tmp_path / "toy" / "sign.py").write_text(TOY)
    test = f"from toy.sign import sign\n\n\ndef test_sign():\n{test_body}"
    (tmp_path / "test_toy.py").write_text(test)
    plugins = ["-p", "no:cacheprovider", "-p", "no:hypothesispytest"]  # a fast start
    args = ["--source", str(tmp_path / "toy"), "--", "-q", *plugins, str(tmp_path)]
    return subprocess.run(
        [sys.executable, str(LINECOV), *args], capture_output=True, text=True, cwd=tmp_path
    )


def test_lists_the_one_unrun_line(tmp_path):
    proc = _run(tmp_path, '    assert sign(1) == "positive"\n')
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{tmp_path / 'toy' / 'sign.py'}:4"
    assert "linecov: 1 unrun line(s)" in proc.stderr


def test_passes_when_every_line_runs(tmp_path):
    proc = _run(tmp_path, '    assert sign(1) == "positive"\n    assert sign(0) == "other"\n')
    assert proc.returncode == 0, proc.stderr
    assert "linecov: 0 unrun line(s)" in proc.stderr


def test_a_failing_test_gives_pytest_status(tmp_path):
    proc = _run(tmp_path, '    assert sign(1) == "other"\n')
    assert proc.returncode == 1
    assert "linecov: pytest exited 1" in proc.stderr
