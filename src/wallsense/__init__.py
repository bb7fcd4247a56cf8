"""FMCW radar scene simulation, baseline-referenced classification,
through-wall occupancy monitoring, and tiered robot safety policies.

Everything is deterministic: identical inputs and seeds reproduce every
sample, peak, and output byte.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .scene import (
    HUMAN_BODY,
    LAB_WALL,
    MATERIAL_PRESETS,
    PLASTERBOARD,
    REFERENCE_RANGE_M,
    SHEET_METAL,
    Material,
    Scatterer,
    Scene,
    Wall,
)
from .synth import (
    DEFAULT_CHIRP,
    SPEED_OF_LIGHT_M_S,
    BeatSignal,
    ChirpConfig,
    beat_frequency,
    range_resolution,
    reflector_phase,
    synthesize_beat,
)
from .profile import (
    Peak,
    RangeProfile,
    Window,
    bin_spacing_m,
    detect_peaks,
    find_peaks_in_series,
    profile_to_csv,
    range_profile,
)
from .classify import (
    DEFAULT_BANDS,
    Baseline,
    ClassBands,
    TargetClass,
    calibrate_bands,
    capture_baseline,
    classify,
    rrm,
    rrm_compensated,
)
from .throughwall import (
    ApproachStatus,
    ApproachTrack,
    MonitorZone,
    OccupancyReport,
    detect_occupancy,
    track_approach,
)
from .safety import (
    INITIAL_STATE,
    SafetyState,
    SafetyTier,
    TierConfig,
    format_log_line,
    update_door_policy,
    update_tier,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    AddScatterer,
    MoveScatterer,
    RemoveScatterer,
    RunResult,
    Scenario,
    ScenarioError,
    ScenarioStep,
    StepResult,
    apply_mutations,
    builtin_scenario,
    run_scenario,
    summary_to_csv,
    write_run_result,
)
from .scenefile import (
    SceneConfig,
    bands_from_mapping,
    bands_to_json,
    load_bands,
    load_scenario_file,
    load_scene_config,
    parse_labeled_rrm_csv,
    parse_scenario,
    parse_scene_config,
    scenario_from_config,
)

# Submodules are package attributes too; `profile` would shadow the stdlib.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
