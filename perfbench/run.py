#!/usr/bin/env python3
"""wallsense benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload noisy_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. wallsense is imported from ./src and the
CLI is run as `python -m wallsense.cli` with src on PYTHONPATH. Rounds of
the same operations repeat for about --seconds (whole rounds, at least
one). --trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
round, then traced rounds, and prints the per-layer metrics. Either way
the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}, and a fuller record (every
sample, quartiles, versions, artifact digests) is written to
.perfbench/results/. Every artifact of every round is hashed; a round
whose bytes differ from the first round's makes the run incorrect.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("noisy_sweep", "long_traverse", "cluttered_room", "cli_batch")
SETUP_TRIALS = 3
CLI_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for a fresh process to import wallsense and prepare the workload."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


def hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Round:
    """Samples and outputs of one round of a workload's operations."""

    scan_ms: list = field(default_factory=list)
    live: list = field(default_factory=list)
    result: object = None
    replay_s: float = 0.0
    write_s: float = 0.0
    bytes_written: int = 0
    files_written: int = 0
    cli_ms: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    seconds: float = 0.0


def run_round(w, round_dir: Path, spans_dir: Path | None, tracer=None) -> Round:
    import wallsense as ws
    import workloads as wl

    clock = time.perf_counter_ns
    rnd = Round()
    started = clock()
    state = ws.INITIAL_STATE
    reports: list = []
    for i, scene in enumerate(w.live_scenes):
        if tracer:
            tracer.begin_op(i)
        t0 = clock()
        if w.live_kind == "classify":
            state, rec = wl.live_scan_classify(w, i, scene, state)
        else:
            state, rec = wl.live_scan_occupancy(w, i, scene, state, reports)
        rnd.scan_ms.append((clock() - t0) * 1e-6)
        rnd.live.append(rec)

    if tracer:
        tracer.begin_op()
    t0 = clock()
    rnd.result = ws.run_scenario(w.scenario)
    rnd.replay_s = (clock() - t0) * 1e-9

    if tracer:
        tracer.begin_op()
    t0 = clock()
    paths = ws.write_run_result(rnd.result, round_dir / "replay")
    rnd.write_s = (clock() - t0) * 1e-9
    rnd.bytes_written = sum(p.stat().st_size for p in paths)
    rnd.files_written = len(paths)

    env = child_env()
    for inv in w.invocations:
        out_dir = round_dir / "cli" / inv.label
        if spans_dir is None:
            prefix = [sys.executable, "-m", "wallsense.cli"]
        else:
            prefix = [sys.executable, str(HERE / "clitrace.py"), str(spans_dir / f"{inv.label}.json")]
        t0 = clock()
        proc = subprocess.run(
            prefix + inv.args + ["--out", str(out_dir)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        rnd.cli_ms.append((clock() - t0) * 1e-6)
        rnd.outcomes.append(wl.CliOutcome(proc.returncode, proc.stdout, proc.stderr, out_dir))
    rnd.seconds = (clock() - started) * 1e-9
    return rnd


def check_round(w, rnd: Round, round_dir: Path) -> tuple[int, list[str]]:
    """Failed operations (malformed documents not rejected cleanly) and check errors."""
    import workloads as wl

    failed = 0
    errors = _guarded(wl.check_live, w, rnd.live) + _guarded(wl.check_replay, w, rnd.live, rnd.result, round_dir / "replay")
    for inv, out in zip(w.invocations, rnd.outcomes):
        if inv.reject_field is not None:
            clean = out.code == 1 and inv.reject_field in out.stderr and "Traceback" not in out.stderr
            failed += not clean
        elif out.code != 0:
            errors.append(f"cli {inv.label}: exit {out.code}: {out.stderr.strip()[-300:]}")
        else:
            errors += _guarded(inv.check, out)
    return failed, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wallsense" / "__init__.py").is_file():
        print(f"error: {SRC / 'wallsense'} not found; run from a wallsense checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        if args.setup_probe:
            start = time.perf_counter()
            import workloads as wl

            wl.prepare(args.workload, args.seed, run_dir / "docs")
            print(time.perf_counter() - start)
            return 0
        return bench(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(args, run_dir: Path) -> int:
    import numpy as np

    import tracing
    import wallsense as ws
    import workloads as wl

    if Path(ws.__file__).resolve().parent != (SRC / "wallsense").resolve():
        print(f"error: imported wallsense from {ws.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w = wl.prepare(args.workload, args.seed, run_dir / "docs")
    setup = [setup_probe(args.workload, args.seed) for _ in range(SETUP_TRIALS)]

    rounds: list[Round] = []
    traced: list[Round] = []
    failed = 0
    errors: list[str] = []
    reference_hashes = None
    tracer = None
    child_spans: list[list] = []
    import_ms: list[float] = []
    started = time.perf_counter()
    while True:
        round_dir = run_dir / "round"
        spans_dir = None
        if tracer is not None:
            spans_dir = run_dir / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
        rnd = run_round(w, round_dir, spans_dir, tracer)
        hashes = hash_tree(round_dir)
        if reference_hashes is None:
            reference_hashes = hashes
            errors += _guarded(wl.check_model, w)
        elif hashes != reference_hashes:
            diff = sorted(k for k in hashes.keys() | reference_hashes.keys() if hashes.get(k) != reference_hashes.get(k))
            errors.append(f"round {len(rounds) + len(traced)}: {len(diff)} artifacts differ from round 0, e.g. {diff[:3]}")
        f, e = check_round(w, rnd, round_dir)
        failed += f
        errors += e
        shutil.rmtree(round_dir)
        rnd.live = rnd.result = rnd.outcomes = None
        if tracer is None:
            rounds.append(rnd)
        else:
            traced.append(rnd)
            for p in sorted(spans_dir.glob("*.json")):
                doc = json.loads(p.read_text())
                child_spans.append(doc["spans"])
                import_ms.append(doc["import_ms"])
                p.unlink()
        if args.trace and tracer is None:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.begin_op()
            wl.prepare(args.workload, args.seed, run_dir / "docs-traced")
            continue
        # Whole rounds only; stop when one more round would mostly run past --seconds.
        done = rounds + traced
        if time.perf_counter() - started + 0.5 * statistics.fmean(r.seconds for r in done) >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    all_rounds = rounds + traced
    attempted = w.ops_per_round * len(all_rounds)
    samples = {
        "setup_s": setup,
        "live_scan_ms": [x for r in rounds for x in r.scan_ms],
        "replay_s": [r.replay_s for r in rounds],
        "write_s": [r.write_s for r in rounds],
        "cli_ms": [x for r in rounds for x in r.cli_ms],
    }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scan = samples["live_scan_ms"]
    # Load from outside the process slows the CPU by up to 1.8 times for
    # seconds at a time. The median of scan times, a two-state mixture,
    # jumps from one state to the other between runs; their mean, and
    # rates over total time, move in proportion to the slow share instead.
    # CLI calls are few and differ by command, so their median is steadier.
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "live_scan_mean_ms": (statistics.fmean(scan), "ms"),
        "live_scan_p95_ms": (statistics.quantiles(scan, n=100)[94] if len(scan) > 1 else scan[0], "ms"),
        "replay_scans_per_s": (len(w.scenario.steps) * len(rounds) / sum(samples["replay_s"]), "scans/s"),
        "write_mb_per_s": (sum(r.bytes_written for r in rounds) * 1e-6 / sum(samples["write_s"]), "MB/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "cli_p50_ms": (statistics.median(samples["cli_ms"]), "ms"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "attempted": attempted,
        "failed": failed,
        "correct": not errors,
        "errors": errors[:50],
        "artifacts": {
            "files": len(reference_hashes),
            "sha256": hashlib.sha256(json.dumps(reference_hashes, sort_keys=True).encode()).hexdigest(),
        },
        "samples": {k: {"n": len(v), "median": statistics.median(v), "quartiles": quartiles(v), "values": v} for k, v in samples.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    if args.trace:
        spans = tracing.merge([tracer.export()] + child_spans)
        layers = tracing.reduce(spans, import_ms, [(r.bytes_written, r.files_written) for r in traced])
        layers["trace.overhead_ratio"] = (statistics.median(r.seconds for r in traced) / rounds[0].seconds, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["per_layer"] = metrics
        record["tracing"] = {"untraced_round_s": rounds[0].seconds, "traced_round_s": [r.seconds for r in traced], "spans": len(spans)}
    else:
        metrics = record["end_to_end"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with gzip.open(results / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "scan", "info"], "spans": spans}, fh)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def _guarded(fn, *args) -> list[str]:
    """Runs one check; a broken check is reported and the run goes on."""
    try:
        fn(*args)
    except Exception as exc:  # any exception inside a check is a failed check
        return [f"{type(exc).__name__}: {exc}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
