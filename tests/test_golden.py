"""Golden CLI outputs: every command on a fixed fixture set, hashed.

Each case runs `wallsense.cli.main` in a fresh directory holding the
fixture documents, with relative paths, and hashes the exit code, stdout,
stderr and every file the command wrote. Before hashing, stderr loses any
`step N ('name') stage 'S': ` location prefix, so a stage failure hashes
the same whether or not the command reports where it happened.

The table was generated before `classify` and `monitor` were moved onto
the scenario scan loop and writers, on x86-64 with numpy 2.4.6: while it
passes, that refactor changed no output byte. The two `scenario_walk`
digests were regenerated since, when `summary.csv` stopped declaring a
target that its step removed, and the `monitor_guard_bins_fill_zone`
digest when the guard-bins error began naming `guard_bins` and the bin
spacing. Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from wallsense.cli import main

STAGE_PREFIX = re.compile(r"step \d+ \('[^']*'\) stage '[a-z]+': ")

WALL6 = {"id": "back", "range_m": 6.0, "material": "lab_wall"}
PARTITION_WALLS = [
    {"id": "near", "range_m": 0.1, "material": "plasterboard"},
    {"id": "far", "range_m": 2.6, "material": "plasterboard"},
]
TRAVERSE_ZONE = {"near_m": 0.1, "far_m": 2.6, "excess_threshold": 1e-3, "guard_bins": 2}
# Empty, approach, recede, empty.
TRAVERSE_M = [None, 2.2, 1.9, 1.6, 1.3, 1.0, 1.3, 1.6, 1.9, None]


def _person(r, sid="person"):
    return {"id": sid, "range_m": r, "material": "human", "kind": "human"}


def _sheet(r):
    return {"id": "sheet", "range_m": r, "material": "metal_sheet", "kind": "metal_sheet",
            "extent_m": [0.3, 0.3]}


def _traverse_scan(i, r):
    scatterers = [] if r is None else [_sheet(r)]
    return {"scene": {"scatterers": scatterers, "walls": PARTITION_WALLS,
                      "noise_amplitude": 2e-4, "rng_seed": 100 + i, "phase_seed": 5}}


DOCS = {
    # The tests/test_cli.py documents.
    "empty_room.json": {"scene": {"walls": [WALL6]}, "baseline": {"feature_range_hint": 6.0}},
    "human_room.json": {"scene": {"scatterers": [_person(2.0)], "walls": [WALL6]}},
    "partition.json": {"scene": {"walls": PARTITION_WALLS},
                       "monitor": {"zone": {"near_m": 0.1, "far_m": 2.6}}},
    "partition_nozone.json": {"scene": {"walls": PARTITION_WALLS}},
    "sheet_behind_partition.json": {"scene": {
        "scatterers": [{"id": "sheet", "range_m": 1.6, "material": "metal_sheet",
                        "kind": "metal_sheet"}],
        "walls": PARTITION_WALLS}},
    "human_room_1ghz.json": {"scene": {"scatterers": [_person(2.0)], "walls": [WALL6]},
                             "chirp": {"bandwidth_hz": 1e9}},
    "out_of_bounds.json": {"scene": {"scatterers": [
        {"id": "s", "range_m": 9.5, "material": "human"}]}},
    "bad.json": "{not json",
    "bands.json": {"infrastructure_max": 1.01, "human_max": 1.2},
    "labeled.csv": "rrm,label\n1.0,Infrastructure\n2.0,Human\n10.0,Metallic\n",
    "one_class.csv": "rrm,label\n1.3,Human\n1.6,Human\n",
    # A noisy room with a person and a metal plate, and its empty references.
    "noisy_room.json": {
        "scene": {"scatterers": [_person(2.4), dict(_sheet(4.1), id="plate")],
                  "walls": [WALL6], "noise_amplitude": 2e-3, "rng_seed": 3, "phase_seed": 17},
        "classifier": {"bands": {"infrastructure_max": 1.1, "human_max": 3.0}},
        "detector": {"min_rsa": 3e-4, "min_prominence": 1e-4},
    },
    "noisy_empty.json": {"scene": {"walls": [WALL6], "noise_amplitude": 2e-3, "rng_seed": 4,
                                   "phase_seed": 17},
                         "baseline": {"feature_range_hint": 6.0}},
    # Plates 4 and 3 bins in front of the 6 m wall (bin 80): the rrm stage
    # keeps the first and skips the second as the reference itself.
    **{f"plate_{b}_bins.json": {"scene": {
        "scatterers": [_person(2.0), dict(_sheet(r), id="plate")], "walls": [WALL6]}}
       for b, r in ((4, 5.6961), (3, 5.771))},
    "hintless_empty.json": {"scene": {"walls": [WALL6], "phase_seed": 17}},
    "nothing.json": {"scene": {}},
    "wrong_hint.json": {"scene": {"walls": [WALL6]}, "baseline": {"feature_range_hint": 3.0}},
    # A metal sheet traversing a corridor behind a partition.
    "traverse_base.json": {"scene": {"walls": PARTITION_WALLS, "phase_seed": 5},
                           "baseline": {"feature_range_hint": 2.6},
                           "monitor": {"zone": TRAVERSE_ZONE}},
    "traverse_base_nozone.json": {"scene": {"walls": PARTITION_WALLS, "phase_seed": 5}},
    **{f"scan_{i}.json": _traverse_scan(i, r) for i, r in enumerate(TRAVERSE_M)},
    # A scenario document that runs all five stages.
    "walk.json": {
        "scene": {"walls": [WALL6], "noise_amplitude": 1e-3, "rng_seed": 21, "phase_seed": 4},
        "baseline": {"feature_range_hint": 6.0},
        "classifier": {"bands": {"infrastructure_max": 1.15, "human_max": 3.7}},
        "monitor": {"zone": {"near_m": 0.1, "far_m": 5.8, "excess_threshold": 1e-3}},
        "safety": {"tiers": {"stop_range_m": 0.9, "slow_range_m": 2.5,
                             "treat_unknown_as_human": True}},
        "scenario": {
            "name": "walk in",
            "pipeline": ["profile", "rrm", "classify", "throughwall", "safety"],
            "steps": [
                {"name": "empty"},
                {"name": "enter", "mutations": [{"op": "add", "scatterer": _person(4.5)}]},
                *({"name": f"at {r} m", "mutations": [
                    {"op": "add", "scatterer": _person(4.5)},
                    {"op": "move", "id": "person", "range_m": r}]}
                  for r in (3.5, 2.6, 1.8, 1.1, 0.6)),
                {"name": "plate", "mutations": [
                    {"op": "add", "scatterer": dict(_sheet(2.0), id="plate")}]},
                {"name": "left", "mutations": [
                    {"op": "add", "scatterer": _person(4.5)},
                    {"op": "remove", "id": "person"}]},
            ],
        },
    },
    "bad_move.json": {
        "scene": {"walls": [WALL6]},
        "baseline": {"feature_range_hint": 6.0},
        "scenario": {"name": "bad move", "pipeline": ["profile", "rrm"], "steps": [
            {"name": "fine", "mutations": [{"op": "add", "scatterer": _person(2.0)}]},
            {"name": "broken", "mutations": [{"op": "move", "id": "ghost", "range_m": 2.0}]},
        ]},
    },
    "bad_pipeline.json": {
        "scene": {"walls": [WALL6]},
        "scenario": {"name": "bad", "pipeline": ["profile", "doppler"], "steps": [{}]},
    },
}

SCANS = [a for i in range(len(TRAVERSE_M)) for a in ("--scene", f"scan_{i}.json")]

CASES = {
    # simulate
    "simulate_human": ["simulate", "--scene", "human_room.json"],
    "simulate_rect": ["simulate", "--scene", "human_room.json", "--window", "rect"],
    "simulate_noisy_seed": ["simulate", "--scene", "noisy_room.json", "--seed", "8"],
    "simulate_out_of_bounds": ["simulate", "--scene", "out_of_bounds.json"],
    "simulate_missing": ["simulate", "--scene", "nope.json"],
    "simulate_malformed": ["simulate", "--scene", "bad.json"],
    # classify
    "classify_human": ["classify", "--scene", "human_room.json", "--baseline", "empty_room.json"],
    "classify_bands_flag": ["classify", "--scene", "human_room.json", "--baseline",
                            "empty_room.json", "--bands", "bands.json"],
    "classify_chirp_mismatch": ["classify", "--scene", "human_room_1ghz.json", "--baseline",
                                "empty_room.json"],
    "classify_noisy": ["classify", "--scene", "noisy_room.json", "--baseline", "noisy_empty.json"],
    "classify_noisy_seed": ["classify", "--scene", "noisy_room.json", "--baseline",
                            "noisy_empty.json", "--seed", "12"],
    "classify_noisy_bands": ["classify", "--scene", "noisy_room.json", "--baseline",
                             "noisy_empty.json", "--bands", "bands.json"],
    "classify_noisy_hintless": ["classify", "--scene", "noisy_room.json", "--baseline",
                                "hintless_empty.json"],
    "classify_plate_4_bins_from_reference": ["classify", "--scene", "plate_4_bins.json",
                                             "--baseline", "empty_room.json"],
    "classify_plate_3_bins_from_reference": ["classify", "--scene", "plate_3_bins.json",
                                             "--baseline", "empty_room.json"],
    "classify_baseline_without_peaks": ["classify", "--scene", "human_room.json", "--baseline",
                                        "nothing.json"],
    "classify_hint_misses": ["classify", "--scene", "human_room.json", "--baseline",
                             "wrong_hint.json"],
    "classify_missing_bands": ["classify", "--scene", "human_room.json", "--baseline",
                               "empty_room.json", "--bands", "nope.json"],
    # monitor
    "monitor_cli_docs": ["monitor", "--baseline", "partition.json", "--scene",
                         "partition_nozone.json", "--scene", "sheet_behind_partition.json"],
    "monitor_zone_flag_only": ["monitor", "--baseline", "partition_nozone.json", "--scene",
                               "sheet_behind_partition.json", "--zone", "0.1,2.6"],
    "monitor_traverse": ["monitor", "--baseline", "traverse_base.json", *SCANS],
    "monitor_traverse_zone_flag": ["monitor", "--baseline", "traverse_base_nozone.json",
                                   "--zone", "0.1,2.6", *SCANS],
    "monitor_traverse_zone_override": ["monitor", "--baseline", "traverse_base.json",
                                       "--zone", "0.3,2.3", *SCANS],
    "monitor_traverse_seed": ["monitor", "--baseline", "traverse_base.json", "--seed", "3",
                              *SCANS],
    "monitor_no_zone": ["monitor", "--baseline", "partition_nozone.json", "--scene",
                        "partition_nozone.json"],
    "monitor_bad_zone_flag": ["monitor", "--baseline", "partition.json", "--scene",
                              "sheet_behind_partition.json", "--zone", "2.6"],
    "monitor_zone_not_numbers": ["monitor", "--baseline", "partition.json", "--scene",
                                 "sheet_behind_partition.json", "--zone", "a,b"],
    "monitor_zone_inverted": ["monitor", "--baseline", "partition.json", "--scene",
                              "sheet_behind_partition.json", "--zone", "2.6,0.1"],
    "monitor_guard_bins_fill_zone": ["monitor", "--baseline", "traverse_base.json",
                                     "--zone", "1.0,1.1", *SCANS],
    "monitor_scan_chirp_mismatch": ["monitor", "--baseline", "empty_room.json", "--zone",
                                    "0.1,5.8", "--scene", "human_room.json", "--scene",
                                    "human_room_1ghz.json"],
    "monitor_scan_invalid": ["monitor", "--baseline", "partition.json", "--scene",
                             "sheet_behind_partition.json", "--scene", "out_of_bounds.json"],
    # scenario
    "scenario_human_sweep": ["scenario", "--name", "human_sweep"],
    "scenario_copper_traverse": ["scenario", "--name", "copper_traverse"],
    "scenario_human_sweep_seed": ["scenario", "--name", "human_sweep", "--seed", "2"],
    "scenario_walk": ["scenario", "--scene", "walk.json"],
    "scenario_walk_seed": ["scenario", "--scene", "walk.json", "--seed", "5"],
    "scenario_bad_move": ["scenario", "--scene", "bad_move.json"],
    "scenario_bad_pipeline": ["scenario", "--scene", "bad_pipeline.json"],
    "scenario_unknown_builtin": ["scenario", "--name", "bogus"],
    "scenario_name_and_scene": ["scenario", "--name", "human_sweep", "--scene", "walk.json"],
    "scenario_neither": ["scenario"],
    # calibrate
    "calibrate_stock": ["calibrate"],
    "calibrate_labeled": ["calibrate", "--input", "labeled.csv"],
    "calibrate_one_class": ["calibrate", "--input", "one_class.csv"],
    "calibrate_missing_input": ["calibrate", "--input", "nope.csv"],
}

GOLDEN = {
    "calibrate_labeled": "ff0abed72c89a1fc",
    "calibrate_missing_input": "b1750b2e072ba8f4",
    "calibrate_one_class": "32aebe049bb627ec",
    "calibrate_stock": "b450c74fcd0c4f2a",
    "classify_bands_flag": "e9658d6471960aef",
    "classify_baseline_without_peaks": "02d39c621bc7b7cf",
    "classify_chirp_mismatch": "2d85af39cd4499a6",
    "classify_hint_misses": "03eb229785e5ae1d",
    "classify_human": "042b6d0912b3db64",
    "classify_missing_bands": "34931f67ad2300d8",
    "classify_noisy": "3420639934b59f15",
    "classify_noisy_bands": "85b4bc609fe2f940",
    "classify_noisy_hintless": "eae8e4e60de152b3",
    "classify_noisy_seed": "173ebbd95e248acf",
    "classify_plate_3_bins_from_reference": "04a85c6872c82fe7",
    "classify_plate_4_bins_from_reference": "47faee7166d61338",
    "monitor_bad_zone_flag": "81e15629e0a14747",
    "monitor_cli_docs": "331a28132a1f1fe1",
    "monitor_guard_bins_fill_zone": "0339fe2668fddd23",
    "monitor_no_zone": "ddb2c5c42991f143",
    "monitor_scan_chirp_mismatch": "9c79fe95fbffcc2f",
    "monitor_scan_invalid": "c0f2724dea9db10c",
    "monitor_traverse": "e5689608faad3324",
    "monitor_traverse_seed": "62700d5281577342",
    "monitor_traverse_zone_flag": "e5689608faad3324",
    "monitor_traverse_zone_override": "be38f6a2a07f7fe8",
    "monitor_zone_flag_only": "36511c75c0d606fb",
    "monitor_zone_inverted": "f7d9c5a20d5187f8",
    "monitor_zone_not_numbers": "29d4c60450b8f78c",
    "scenario_bad_move": "7235800f42c44f13",
    "scenario_bad_pipeline": "0f43d868c32fb4dd",
    "scenario_copper_traverse": "88522bf64fec3fbf",
    "scenario_human_sweep": "31befda39892b32a",
    "scenario_human_sweep_seed": "677d5c49f957a886",
    "scenario_name_and_scene": "b76c1ec19995afc3",
    "scenario_neither": "b76c1ec19995afc3",
    "scenario_unknown_builtin": "d87b0c145e20e760",
    "scenario_walk": "03888a86f2251f85",
    "scenario_walk_seed": "909c15e913bd3c9d",
    "simulate_human": "1672983387eba6cf",
    "simulate_malformed": "41a781d8b7bd8217",
    "simulate_missing": "34931f67ad2300d8",
    "simulate_noisy_seed": "5bf6a3993a29058a",
    "simulate_out_of_bounds": "c0f2724dea9db10c",
    "simulate_rect": "68eafe4b3c7a42b5",
}


def _write_docs(root: Path) -> None:
    for name, doc in DOCS.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (root / name).write_text(text)


def run_case(argv: list[str], root: Path) -> tuple[str, str]:
    """Run one CLI case in root (the working directory); returns (digest, summary)."""
    _write_docs(root)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", "out"])
    stdout, stderr = out.getvalue(), STAGE_PREFIX.sub("", err.getvalue())
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    for part in (stdout, stderr):
        h.update(part.encode() + b"\0")
    out_dir = root / "out"
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    summary = f"exit {code}; stdout {stdout!r}; stderr {stderr!r}; files {[p.name for p in files]}"
    return h.hexdigest()[:16], summary


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest, summary = run_case(CASES[case], tmp_path)
    assert digest == GOLDEN[case], summary


def test_every_case_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    import os
    import tempfile

    print("GOLDEN = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                digest, _ = run_case(CASES[case], Path(tmp))
            finally:
                os.chdir(cwd)
        print(f'    "{case}": "{digest}",')
    print("}")
