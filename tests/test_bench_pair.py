import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def _record(seed, value, trace=0, numpy="2.4.6", workload="cluttered_room", digest=None):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": "3.11.7",
        "numpy": numpy,
        "nproc": 2,
        "seconds": 5,
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "artifacts": {"files": 3, "sha256": digest or f"digest-{workload}-{seed}"},
        "end_to_end": {"live_scan_mean_ms": {"value": value, "unit": "ms"}},
    }


RECORDS = [_record(3, 10.0), _record(1, 1.0), _record(2, 2.0)]


def test_reduce_gives_the_median_inclusive_iqr_and_seeds():
    summary = bench_pair.reduce(RECORDS, "abc", "def")
    [row] = summary["metrics"]
    assert row["workload"] == "cluttered_room"
    assert row["metric"] == "live_scan_mean_ms"
    assert row["unit"] == "ms"
    assert row["values"] == [1.0, 2.0, 10.0]
    assert row["seeds"] == [1, 2, 3]
    assert row["median"] == 2.0
    # Inclusive quartiles of 1, 2, 10 are 1.5 and 6; exclusive ones would be 1 and 10.
    assert row["iqr"] == 4.5
    assert summary["runs"] == {"cluttered_room": {"correct": True, "attempted": 30, "failed": 0}}
    assert (summary["commit"], summary["src_tree"], summary["nproc"]) == ("abc", "def", 2)


def test_reduce_keeps_each_runs_artifact_digest_by_workload_and_seed():
    records = [*RECORDS, _record(1, 5.0, workload="noisy_sweep", digest="n1"),
               _record(1, 6.0, workload="noisy_sweep", digest="n1")]
    assert bench_pair.reduce(records, "abc", "def")["artifacts_sha256"] == {
        "cluttered_room": {"1": "digest-cluttered_room-1", "2": "digest-cluttered_room-2",
                           "3": "digest-cluttered_room-3"},
        "noisy_sweep": {"1": "n1"},
    }


def test_reruns_of_one_seed_that_wrote_different_artifacts_raise():
    message = "^cluttered_room seed 2: runs wrote different artifacts$"
    with pytest.raises(ValueError, match=message):
        bench_pair.reduce([*RECORDS, _record(2, 3.0, digest="other")], "abc", "def")


def test_records_from_differing_environments_raise():
    with pytest.raises(ValueError, match="runs differ in python, numpy, nproc or seconds"):
        bench_pair.reduce([*RECORDS, _record(4, 3.0, numpy="2.3.0")], "abc", "def")


def _write(tmp_path, records):
    paths = []
    for r in records:
        path = tmp_path / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
        path.write_text(json.dumps(r))
        paths.append(str(path))
    return paths


def test_main_writes_the_summary(tmp_path):
    out = tmp_path / "summary.json"
    argv = ["--commit", "abc", "--src-tree", "def", "--out", str(out)]
    assert bench_pair.main([*argv, *_write(tmp_path, RECORDS)]) == 0
    assert json.loads(out.read_text()) == bench_pair.reduce(RECORDS, "abc", "def")


def test_traced_records_make_main_return_1(tmp_path, capsys):
    out = tmp_path / "summary.json"
    paths = _write(tmp_path, [*RECORDS, _record(4, 3.0, trace=1)])
    assert bench_pair.main(["--commit", "abc", "--src-tree", "def", "--out", str(out), *paths]) == 1
    assert "traced runs" in capsys.readouterr().err
    assert not out.exists()
