import json
import math
import shutil
import subprocess
import types

import pytest

import wallsense
from wallsense.cli import main

EMPTY_ROOM = {
    "scene": {"walls": [{"id": "back", "range_m": 6.0, "material": "lab_wall"}]},
    "baseline": {"feature_range_hint": 6.0},
}

HUMAN_ROOM = {
    "scene": {
        "scatterers": [{"id": "person", "range_m": 2.0, "material": "human", "kind": "human"}],
        "walls": [{"id": "back", "range_m": 6.0, "material": "lab_wall"}],
    }
}

PARTITION = {
    "scene": {
        "walls": [
            {"id": "near", "range_m": 0.1, "material": "plasterboard"},
            {"id": "far", "range_m": 2.6, "material": "plasterboard"},
        ]
    },
    "monitor": {"zone": {"near_m": 0.1, "far_m": 2.6}},
}

SHEET_BEHIND_PARTITION = {
    "scene": {
        "scatterers": [
            {"id": "sheet", "range_m": 1.6, "material": "metal_sheet", "kind": "metal_sheet"}
        ],
        "walls": PARTITION["scene"]["walls"],
    }
}


def _write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParserBasics:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"wallsense {wallsense.__version__}"

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ["simulate", "classify", "monitor", "scenario", "calibrate"]
    )
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out

    def test_input_file_is_left_untouched(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(HUMAN_ROOM))
        before = scene_path.read_bytes()
        out = tmp_path / "out"
        assert main(["simulate", "--scene", str(scene_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert scene_path.read_bytes() == before

    def test_star_import_binds_no_modules(self):
        namespace = {}
        exec("from wallsense import *", namespace)
        assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]
        assert "run_scenario" in namespace

    @pytest.mark.parametrize("key", ["min_rsa", "min_prominence"])
    @pytest.mark.parametrize("command", ["simulate", "classify", "monitor"])
    def test_negative_detector_threshold_exits_1_naming_the_field(
        self, command, key, tmp_path, capsys
    ):
        scene = _write_doc(tmp_path, "scene.json", dict(HUMAN_ROOM, detector={key: -1}))
        extra = {
            "simulate": [],
            "classify": ["--baseline", _write_doc(tmp_path, "empty.json", EMPTY_ROOM)],
            "monitor": ["--baseline", _write_doc(tmp_path, "partition.json", PARTITION)],
        }[command]
        argv = [command, "--scene", scene, *extra, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: detector.{key}: expected a number >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["simulate", "classify", "monitor"])
    def test_negative_baseline_hint_exits_1_naming_the_field(self, command, tmp_path, capsys):
        doc = dict(EMPTY_ROOM, baseline={"feature_range_hint": -1},
                   monitor={"zone": {"near_m": 0.5, "far_m": 5.5}})
        path = _write_doc(tmp_path, "room.json", doc)
        extra = [] if command == "simulate" else ["--baseline", path]
        assert main([command, "--scene", path, *extra, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: baseline.feature_range_hint: expected a number >= 0, got -1\n"
        )
        assert not (tmp_path / "out").exists()

    def test_installed_entry_point(self):
        assert shutil.which("wallsense"), "console script not on PATH"
        proc = subprocess.run(
            ["wallsense", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"wallsense {wallsense.__version__}"


class TestSimulate:
    def test_writes_profile_csv(self, tmp_path, capsys):
        scene = _write_doc(tmp_path, "scene.json", HUMAN_ROOM)
        out = tmp_path / "out"
        assert main(["simulate", "--scene", scene, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == str(out / "profile.csv")
        assert captured.err == ""
        lines = (out / "profile.csv").read_text().splitlines()
        assert lines[0] == "range_m,rsa"
        assert len(lines) == 501

    def test_window_flag_changes_output(self, tmp_path):
        scene = _write_doc(tmp_path, "scene.json", HUMAN_ROOM)
        main(["simulate", "--scene", scene, "--out", str(tmp_path / "a")])
        main(["simulate", "--scene", scene, "--out", str(tmp_path / "b"), "--window", "rect"])
        a = (tmp_path / "a" / "profile.csv").read_bytes()
        b = (tmp_path / "b" / "profile.csv").read_bytes()
        assert a != b

    def test_invalid_scene_exits_1(self, tmp_path, capsys):
        doc = {"scene": {"scatterers": [{"id": "s", "range_m": 9.5, "material": "human"}]}}
        scene = _write_doc(tmp_path, "scene.json", doc)
        assert main(["simulate", "--scene", scene, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "out of bounds" in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--scene", missing, "--out", str(tmp_path / "out")]) == 2
        assert "error: " in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--scene", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_zero_bandwidth_exits_1_naming_the_field(self, tmp_path, capsys):
        scene = _write_doc(tmp_path, "scene.json", dict(HUMAN_ROOM, chirp={"bandwidth_hz": 0}))
        assert main(["simulate", "--scene", scene, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: chirp.bandwidth_hz: ")

    def test_nan_max_range_exits_1_naming_the_field(self, tmp_path, capsys):
        doc = {"scene": dict(HUMAN_ROOM["scene"], max_range_m=math.nan)}
        scene = _write_doc(tmp_path, "scene.json", doc)
        assert main(["simulate", "--scene", scene, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: scene.max_range_m: ")

    def test_chirp_sample_count_overflow_exits_1_naming_the_fields(self, tmp_path, capsys):
        doc = dict(HUMAN_ROOM, chirp={"sweep_time_s": 1e200, "sample_rate_hz": 1e200})
        scene = _write_doc(tmp_path, "scene.json", doc)
        assert main(["simulate", "--scene", scene, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: chirp.sweep_time_s * chirp.sample_rate_hz = ")

    @pytest.mark.parametrize("rng_seed, flags", [(-1, []), (0, ["--seed", "-5"])])
    def test_negative_rng_seed_exits_1_naming_the_field(self, rng_seed, flags, tmp_path, capsys):
        doc = {"scene": dict(HUMAN_ROOM["scene"], noise_amplitude=1e-3, rng_seed=rng_seed)}
        scene = _write_doc(tmp_path, "scene.json", doc)
        assert main(["simulate", "--scene", scene, *flags, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        seed = flags[-1] if flags else rng_seed
        assert captured.err == f"error: scene.rng_seed must be >= 0, got {seed}\n"

    @pytest.mark.parametrize(
        "section, value",
        [
            ("monitor", []),
            ("safety", 0),
            ("classifier", ""),
            ("baseline", False),
            ("chirp", None),
            ("monitor.zone", []),
            ("safety.tiers", 0),
            ("classifier.bands", ""),
        ],
    )
    def test_present_section_must_be_an_object(self, section, value, tmp_path, capsys):
        # Only an absent section means "not configured".
        outer, _, inner = section.partition(".")
        doc = dict(HUMAN_ROOM, **{outer: {inner: value} if inner else value})
        scene = _write_doc(tmp_path, "scene.json", doc)
        assert main(["simulate", "--scene", scene, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {section}: expected an object\n"


class TestClassify:
    def _run(self, tmp_path, extra=(), scene_doc=HUMAN_ROOM):
        scene = _write_doc(tmp_path, "scene.json", scene_doc)
        base = _write_doc(tmp_path, "base.json", EMPTY_ROOM)
        out = tmp_path / "out"
        code = main(
            ["classify", "--scene", scene, "--baseline", base, "--out", str(out), *extra]
        )
        return code, out / "classification.csv"

    def test_human_row(self, tmp_path):
        code, csv = self._run(tmp_path)
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "peak_range_m,rsa,rrm,class"
        assert len(lines) == 2
        range_m, _, rrm_value, cls = lines[1].split(",")
        assert abs(float(range_m) - 2.0) < 0.08
        assert 1.2 < float(rrm_value) < 3.0
        assert cls == "Human"

    def test_bands_flag_overrides(self, tmp_path):
        bands_path = tmp_path / "bands.json"
        bands_path.write_text(json.dumps({"infrastructure_max": 1.01, "human_max": 1.2}))
        code, csv = self._run(tmp_path, extra=["--bands", str(bands_path)])
        assert code == 0
        assert csv.read_text().splitlines()[1].endswith(",Metallic")

    def test_chirp_mismatch_exits_1(self, tmp_path, capsys):
        doc = dict(HUMAN_ROOM)
        doc["chirp"] = {"bandwidth_hz": 1e9}
        code, _ = self._run(tmp_path, scene_doc=doc)
        assert code == 1
        assert "chirp" in capsys.readouterr().err


class TestMonitor:
    def test_running_status_column(self, tmp_path, capsys):
        base = _write_doc(tmp_path, "base.json", PARTITION)
        empty = _write_doc(tmp_path, "scan0.json", {"scene": PARTITION["scene"]})
        sheet = _write_doc(tmp_path, "scan1.json", SHEET_BEHIND_PARTITION)
        out = tmp_path / "out"
        code = main(
            ["monitor", "--baseline", base, "--scene", empty, "--scene", sheet,
             "--out", str(out)]
        )
        assert code == 0
        lines = (out / "monitor.csv").read_text().splitlines()
        assert lines[0] == "scan_index,occupied,range_m,excess_rsa,status"
        assert lines[1] == "0,False,,,Empty"
        first, occupied, range_m, excess, status = lines[2].split(",")
        assert (first, occupied, status) == ("1", "True", "Static")
        assert abs(float(range_m) - 1.6) < 0.08
        assert float(excess) > 0.01

    def test_hintless_baseline_needs_no_peak_at_the_zone_edge(self, tmp_path):
        # The zone ends at 2.3 m, where the empty corridor has no peak; the
        # throughwall stage reads the baseline profile, not its anchor.
        scan = _write_doc(tmp_path, "scan.json", SHEET_BEHIND_PARTITION)
        written = []
        hinted = dict(PARTITION, baseline={"feature_range_hint": 2.6})
        for name, doc in (("hintless", PARTITION), ("hinted", hinted)):
            base = _write_doc(tmp_path, f"{name}.json", doc)
            code = main(["monitor", "--baseline", base, "--scene", scan, "--zone", "0.3,2.3",
                         "--out", str(tmp_path / name)])
            assert code == 0
            written.append((tmp_path / name / "monitor.csv").read_bytes())
        assert written[0] == written[1]
        assert b",True," in written[0]

    def test_guard_bins_beyond_any_float_exits_1_naming_the_field(self, tmp_path, capsys):
        zone = {"near_m": 0.1, "far_m": 2.6, "guard_bins": 10**400}
        base = _write_doc(tmp_path, "base.json", dict(PARTITION, monitor={"zone": zone}))
        code = main(["monitor", "--baseline", base, "--scene", base, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: step 0 ('{base}') stage 'throughwall': guard bins consume the whole "
            f"zone (0.1, 2.6): guard_bins {10**400} at a bin spacing of 0.0749481 m\n"
        )

    def test_zone_flag_when_config_has_none(self, tmp_path):
        doc = {"scene": PARTITION["scene"]}
        base = _write_doc(tmp_path, "base.json", doc)
        scan = _write_doc(tmp_path, "scan.json", SHEET_BEHIND_PARTITION)
        out = tmp_path / "out"
        code = main(
            ["monitor", "--baseline", base, "--scene", scan, "--zone", "0.1,2.6",
             "--out", str(out)]
        )
        assert code == 0
        assert ",True," in (out / "monitor.csv").read_text()

    def test_no_zone_anywhere_exits_1(self, tmp_path, capsys):
        doc = {"scene": PARTITION["scene"]}
        base = _write_doc(tmp_path, "base.json", doc)
        scan = _write_doc(tmp_path, "scan.json", doc)
        code = main(["monitor", "--baseline", base, "--scene", scan, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "no monitor zone" in capsys.readouterr().err

    def test_bad_zone_flag_exits_1(self, tmp_path, capsys):
        base = _write_doc(tmp_path, "base.json", PARTITION)
        scan = _write_doc(tmp_path, "scan.json", SHEET_BEHIND_PARTITION)
        code = main(["monitor", "--baseline", base, "--scene", scan, "--zone", "2.6",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--zone expects" in capsys.readouterr().err

    def test_infinite_zone_flag_exits_1_naming_the_field(self, tmp_path, capsys):
        base = _write_doc(tmp_path, "base.json", PARTITION)
        scan = _write_doc(tmp_path, "scan.json", SHEET_BEHIND_PARTITION)
        code = main(["monitor", "--baseline", base, "--scene", scan, "--zone", "0.1,inf",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: far_m must be finite, got inf\n"
        assert not (tmp_path / "o").exists()

    def test_zero_baseline_hint_is_kept_as_in_classify(self, tmp_path, capsys):
        # A hint of 0 used to be replaced by the zone's far edge.
        doc = dict(EMPTY_ROOM, baseline={"feature_range_hint": 0},
                   monitor={"zone": {"near_m": 0.5, "far_m": 5.5}})
        base = _write_doc(tmp_path, "base.json", doc)
        errors = []
        for command in ("classify", "monitor"):
            code = main([command, "--baseline", base, "--scene", base,
                         "--out", str(tmp_path / command)])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors == ["error: reference feature not found within 3 bins of 0.0 m\n"] * 2

    def test_stage_failure_names_step_and_stage(self, tmp_path, capsys):
        base = _write_doc(tmp_path, "base.json", dict(PARTITION, baseline={"feature_range_hint": 2.6}))
        empty = _write_doc(tmp_path, "scan0.json", {"scene": PARTITION["scene"]})
        code = main(["monitor", "--baseline", base, "--scene", empty, "--zone", "1.0,1.1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: step 0 ('{empty}') stage 'throughwall': "
            "guard bins consume the whole zone (1.0, 1.1): "
            "guard_bins 2 at a bin spacing of 0.0749481 m\n"
        )


class TestScenario:
    def test_builtin_by_name(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["scenario", "--name", "human_sweep", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 7
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 5
        assert all(line.endswith(",Human") for line in summary[1:])

    def test_scenario_from_file(self, tmp_path):
        doc = {
            "scene": {"walls": [{"id": "w", "range_m": 6.0, "material": "lab_wall"}]},
            "scenario": {
                "name": "one shot",
                "pipeline": ["profile"],
                "steps": [{"name": "only"}],
            },
        }
        path = _write_doc(tmp_path, "scenario.json", doc)
        out = tmp_path / "out"
        assert main(["scenario", "--scene", path, "--out", str(out)]) == 0
        assert (out / "profile_00_only.csv").exists()

    def test_negative_seed_flag_exits_1_naming_the_field(self, tmp_path, capsys):
        code = main(["scenario", "--name", "human_sweep", "--seed", "-5", "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scene.rng_seed must be >= 0, got -5\n"

    def test_unknown_builtin_exits_1(self, tmp_path, capsys):
        code = main(["scenario", "--name", "bogus", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown scenario 'bogus'" in capsys.readouterr().err

    def test_name_and_scene_are_mutually_exclusive(self, tmp_path, capsys):
        code = main(["scenario", "--name", "human_sweep", "--scene", "x.json",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_neither_name_nor_scene_exits_1(self, tmp_path, capsys):
        assert main(["scenario", "--out", str(tmp_path / "o")]) == 1
        assert "exactly one" in capsys.readouterr().err


class TestCalibrate:
    def test_stock_set_reproduces_default_bands(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--out", str(out)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "infrastructure_max=1.14891253 human_max=3.75749917"
        doc = json.loads((out / "bands.json").read_text())
        assert doc["infrastructure_max"] == pytest.approx(math.sqrt(1.32), rel=1e-9)
        assert doc["human_max"] == pytest.approx(math.sqrt(1.88 * 7.51), rel=1e-9)

    def test_idempotent_bytes(self, tmp_path):
        main(["calibrate", "--out", str(tmp_path / "a")])
        main(["calibrate", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "bands.json").read_bytes()
        b = (tmp_path / "b" / "bands.json").read_bytes()
        assert a == b

    def test_custom_input(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("rrm,label\n1.0,Infrastructure\n2.0,Human\n10.0,Metallic\n")
        assert main(["calibrate", "--input", str(path), "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "bands.json").read_text())
        assert doc["infrastructure_max"] == pytest.approx(math.sqrt(2), rel=1e-9)

    def test_single_class_exits_1(self, tmp_path, capsys):
        path = tmp_path / "labeled.csv"
        path.write_text("rrm,label\n1.3,Human\n1.6,Human\n")
        assert main(["calibrate", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "2 classes" in capsys.readouterr().err

    def test_infinite_rrm_exits_1_naming_the_line(self, tmp_path, capsys):
        # Accepted, it wrote human_max: null, so Metallic was unreachable.
        path = tmp_path / "labeled.csv"
        path.write_text("rrm,label\n1.0,Infrastructure\n2.0,Human\ninf,Metallic\n")
        assert main(["calibrate", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: line 4: rrm must be a finite number, got 'inf'\n"
        assert not (tmp_path / "o").exists()

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["calibrate", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
