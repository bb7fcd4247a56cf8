"""List every line of src/wallsense that no test runs.

Runs pytest in this process under a stdlib line tracer (sys.settrace, and
threading.settrace for threads the tests start), then compares the lines
that ran with every line that carries bytecode in the measured source.
Lines run only by a subprocess that a test starts count as unrun.

    python tools/linecov.py                       # pytest tests perfbench
    python tools/linecov.py -- -x tests           # other pytest arguments
    python tools/linecov.py --source DIR -- ARGS  # measure DIR's *.py files

Prints each unrun line as path:line. Exits with pytest's own status when
a test fails, else 1 when some line did not run and 0 when every line did.
"""

from __future__ import annotations

import argparse
import dis
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path: Path) -> set[int]:
    """The lines of the source file at path that start some bytecode."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(source: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status, and the lines run per file under source."""
    import pytest

    prefix = str(source) + "/"
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hits.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--source", type=Path, default=ROOT / "src" / "wallsense",
                   help="directory whose *.py files are measured (default: src/wallsense)")
    p.add_argument("pytest_args", nargs="*", default=["tests", "perfbench"],
                   help="arguments for pytest (default: tests perfbench)")
    args = p.parse_args(argv)
    source = args.source.resolve()
    # Import the measured package from its checkout, not from an installed copy.
    sys.path.insert(0, str(source.parent))
    status, hits = run_traced(source, args.pytest_args)
    unrun = [
        f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}:{line}"
        for path in sorted(source.rglob("*.py"))
        for line in sorted(executable_lines(path) - hits.get(str(path), set()))
    ]
    for entry in unrun:
        print(entry)
    print(f"linecov: {len(unrun)} unrun line(s) in {source}", file=sys.stderr)
    if status != 0:
        print(f"linecov: pytest exited {status}", file=sys.stderr)
        return status
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
