"""The package loads each submodule on first use, and the CLI entry defaults
numpy to one BLAS thread.

Import order is what most of these tests check, so those run in a fresh
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallsense

SRC = Path(wallsense.__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

PUBLIC = [
    "AddScatterer", "ApproachStatus", "ApproachTrack", "BUILTIN_SCENARIOS", "Baseline",
    "BeatSignal", "ChirpConfig", "ClassBands", "DEFAULT_BANDS", "DEFAULT_CHIRP", "HUMAN_BODY",
    "INITIAL_STATE", "LAB_WALL", "MATERIAL_PRESETS", "Material", "MonitorZone", "MoveScatterer",
    "OccupancyReport", "PLASTERBOARD", "Peak", "REFERENCE_RANGE_M", "RangeProfile",
    "RemoveScatterer", "RunResult", "SHEET_METAL", "SPEED_OF_LIGHT_M_S", "SafetyState",
    "SafetyTier", "Scatterer", "Scenario", "ScenarioError", "ScenarioStep", "Scene",
    "SceneConfig", "StepResult", "TargetClass", "TierConfig", "Wall", "Window",
    "apply_mutations", "bands_from_mapping", "bands_to_json", "beat_frequency", "bin_spacing_m",
    "builtin_scenario", "calibrate_bands", "capture_baseline", "classify", "detect_occupancy",
    "detect_peaks", "find_peaks_in_series", "format_log_line", "load_bands",
    "load_scenario_file", "load_scene_config", "parse_labeled_rrm_csv", "parse_scenario",
    "parse_scene_config", "profile_to_csv", "range_profile", "range_resolution",
    "reflector_phase", "rrm", "rrm_compensated", "run_scenario", "scan_steps",
    "scenario_from_config", "summary_to_csv", "synthesize_beat", "track_approach",
    "update_door_policy", "update_tier", "write_run_result",
]


def _fresh(code: str, **env: str) -> str:
    """Standard output of code run by a new interpreter that imports ./src."""
    environ = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=environ, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_numpy():
    assert _fresh("import sys, wallsense; print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("first", ["wallsense", "wallsense.classify", "wallsense.scenario",
                                   "wallsense.cli"])
def test_classify_is_the_function_after_any_first_import(first):
    code = (
        f"import {first}\n"
        "import wallsense\n"
        "from wallsense import classify\n"
        "print(classify.__module__, classify is wallsense.classify)"
    )
    assert _fresh(code) == "wallsense.classify True\n"


def test_public_names_are_pinned_and_listed():
    assert wallsense.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(wallsense))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        wallsense.no_such_name


def test_cli_defaults_blas_to_one_thread():
    code = (
        "import os, wallsense.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])\n"
        "if os.path.isdir('/proc/self/task'):\n"
        "    print(len(os.listdir('/proc/self/task')))"
    )
    lines = _fresh(code).split()
    assert lines[:2] == ["1", "1"]
    if len(lines) > 2:
        assert lines[2] == "1"  # numpy started no BLAS worker thread


def test_cli_keeps_a_thread_count_the_user_set():
    code = "import os, wallsense.cli; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    assert _fresh(code, OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="3") == "3 3\n"
