"""Reduce perfbench result files to one BENCH_<n>_<side>.json summary.

Each perfbench run writes .perfbench/results/<workload>-seed<N>-trace0.json
under the checkout it ran from. Run the parent and the change from two
separate checkouts, interleaved, then reduce each side's files:

    python3 tools/bench_pair.py --commit <sha> --src-tree <tree> \\
        --out BENCH_8_before.json ../parent/.perfbench/results/*-trace0.json

One row per (workload, end-to-end metric): the median and interquartile
range over the runs, and the seeds they used. Each run's artifact digest
is kept by workload and seed, so two BENCH files show seed by seed whether
both sides wrote the same bytes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def reduce(records: list[dict], commit: str, src_tree: str) -> dict:
    envs = {(r["python"], r["numpy"], r["nproc"], r["seconds"]) for r in records}
    if len(envs) != 1:
        raise ValueError(f"runs differ in python, numpy, nproc or seconds: {sorted(envs)}")
    python, numpy, nproc, seconds = envs.pop()
    by_workload: dict[str, list[dict]] = {}
    digests: dict[str, dict[str, str]] = {}
    for r in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        by_workload.setdefault(r["workload"], []).append(r)
        digest = r["artifacts"]["sha256"]
        if digests.setdefault(r["workload"], {}).setdefault(str(r["seed"]), digest) != digest:
            raise ValueError(f"{r['workload']} seed {r['seed']}: runs wrote different artifacts")
    rows = []
    for workload, runs in by_workload.items():
        for metric, first in runs[0]["end_to_end"].items():
            values = [r["end_to_end"][metric]["value"] for r in runs]
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": first["unit"],
                "median": statistics.median(values),
                "iqr": _iqr(values),
                "values": values,
                "seeds": [r["seed"] for r in runs],
            })
    return {
        "commit": commit,
        "src_tree": src_tree,
        "python": python,
        "numpy": numpy,
        "nproc": nproc,
        "seconds": seconds,
        "runs": {w: {"correct": all(r["correct"] for r in runs),
                     "attempted": sum(r["attempted"] for r in runs),
                     "failed": sum(r["failed"] for r in runs)}
                 for w, runs in by_workload.items()},
        "metrics": rows,
        "artifacts_sha256": digests,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--commit", required=True, help="commit the runs measured")
    p.add_argument("--src-tree", required=True, help="git tree id of src/ in that commit")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("results", nargs="+", type=Path, help="perfbench *-trace0.json files")
    args = p.parse_args(argv)
    records = [json.loads(path.read_text()) for path in args.results]
    if any(r["trace"] for r in records):
        print("error: traced runs time the tracer too; pass --trace 0 results", file=sys.stderr)
        return 1
    summary = reduce(records, args.commit, args.src_tree)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
