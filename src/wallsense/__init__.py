"""FMCW radar scene simulation, baseline-referenced classification,
through-wall occupancy monitoring, and tiered robot safety policies.

Everything is deterministic: identical inputs and seeds reproduce every
sample, peak, and output byte.

Public names load their submodule, and numpy, on first use (PEP 562), so
an entry point can configure numpy before anything imports it.
"""

__version__ = "0.1.0"

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

_HOME = {
    name: module
    for module, names in {
        "scene": "HUMAN_BODY LAB_WALL MATERIAL_PRESETS PLASTERBOARD REFERENCE_RANGE_M"
        " SHEET_METAL Material Scatterer Scene Wall",
        "synth": "DEFAULT_CHIRP SPEED_OF_LIGHT_M_S BeatSignal ChirpConfig beat_frequency"
        " range_resolution reflector_phase synthesize_beat",
        "profile": "Peak RangeProfile Window bin_spacing_m detect_peaks find_peaks_in_series"
        " profile_to_csv range_profile",
        "classify": "DEFAULT_BANDS Baseline ClassBands TargetClass calibrate_bands"
        " capture_baseline classify rrm rrm_compensated",
        "throughwall": "ApproachStatus ApproachTrack MonitorZone OccupancyReport"
        " detect_occupancy track_approach",
        "safety": "INITIAL_STATE SafetyState SafetyTier TierConfig format_log_line"
        " update_door_policy update_tier",
        "scenario": "BUILTIN_SCENARIOS AddScatterer MoveScatterer RemoveScatterer RunResult"
        " Scenario ScenarioError ScenarioStep StepResult apply_mutations builtin_scenario"
        " run_scenario scan_steps summary_to_csv write_run_result",
        "scenefile": "SceneConfig bands_from_mapping bands_to_json load_bands"
        " load_scenario_file load_scene_config parse_labeled_rrm_csv parse_scenario"
        " parse_scene_config scenario_from_config",
    }.items()
    for name in names.split()
}

# Submodules are not exported; `profile` would shadow the stdlib.
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())


class _Package(_ModuleType):
    # Importing a submodule binds it on the package. For `classify`, the
    # submodule and the function share a name, and the function wins.
    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOME and isinstance(value, _ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
