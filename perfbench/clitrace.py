"""Traced stand-in for `python -m wallsense.cli`, used by the benchmark's traced run.

Usage: python perfbench/clitrace.py SPANS_JSON CLI_ARG...

Times the import of wallsense.cli, installs the tracer, runs cli.main on
the remaining arguments and writes the spans to SPANS_JSON, also when
main raises. An uncaught exception still ends the process with a
traceback and exit code 1, as `python -m wallsense.cli` does.
"""

import json
import sys
import time

from tracing import Tracer

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import wallsense.cli

    import_ms = (time.perf_counter_ns() - start) * 1e-6
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = wallsense.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.export()}, fh)
    sys.exit(code)
