"""Declarative multi-scan scenarios and the stage pipeline that runs them.

A scenario owns a base scene plus an ordered list of steps; every step is
the base scene with its own mutations applied, never the previous step's
result, so reordering steps cannot change what any single step sees. Each
step is pushed through the configured pipeline stages: scan_steps yields
each step's artifacts as soon as they exist, and run_scenario keeps them
all for reporting.

Replays are exact: synthesis is seeded, stages are pure, and the writers
format deterministically, so a rerun reproduces every output byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Union

from .classify import (
    Baseline,
    ClassBands,
    DEFAULT_BANDS,
    TargetClass,
    capture_baseline,
    classify,
    rrm_compensated,
)
from .profile import Peak, RangeProfile, Window, detect_peaks, profile_to_csv, range_profile
from .safety import (
    INITIAL_STATE,
    SafetyState,
    TierConfig,
    format_log_line,
    update_door_policy,
    update_tier,
)
from .scene import (
    HUMAN_BODY,
    LAB_WALL,
    PLASTERBOARD,
    SHEET_METAL,
    Scatterer,
    Scene,
    Wall,
)
from .synth import DEFAULT_CHIRP, ChirpConfig, synthesize_beat
from .throughwall import (
    ApproachStatus,
    MonitorZone,
    OccupancyReport,
    _trend_status,
    detect_occupancy,
)

STAGES = ("profile", "rrm", "classify", "throughwall", "safety")

# Peaks this close to the baseline reference bin are treated as the
# reference itself and skipped by the rrm stage.
REFERENCE_EXCLUSION_BINS = 3


class ScenarioError(ValueError):
    """A stage failed; the message carries the step index and stage name."""


@dataclass(frozen=True)
class AddScatterer:
    scatterer: Scatterer


@dataclass(frozen=True)
class MoveScatterer:
    scatterer_id: str
    range_m: float


@dataclass(frozen=True)
class RemoveScatterer:
    scatterer_id: str


Mutation = Union[AddScatterer, MoveScatterer, RemoveScatterer]


@dataclass(frozen=True)
class ScenarioStep:
    name: str
    mutations: tuple[Mutation, ...] = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    base_scene: Scene
    steps: tuple[ScenarioStep, ...]
    pipeline: tuple[str, ...]
    chirp: ChirpConfig = DEFAULT_CHIRP
    baseline_hint_m: float | None = None
    bands: ClassBands = DEFAULT_BANDS
    zone: MonitorZone | None = None
    tier_config: TierConfig = TierConfig()
    detect_min_rsa: float = 2e-4
    detect_min_prominence: float = 1e-4

    def __post_init__(self) -> None:
        for stage in self.pipeline:
            if stage not in STAGES:
                raise ValueError(f"unknown pipeline stage '{stage}'")
        has = set(self.pipeline)
        if has - {"profile"} and "profile" not in has:
            raise ValueError("pipeline needs the 'profile' stage before any other stage")
        if "classify" in has and "rrm" not in has:
            raise ValueError("'classify' requires the 'rrm' stage")
        if "safety" in has and not has & {"classify", "throughwall"}:
            raise ValueError("'safety' requires the 'classify' or 'throughwall' stage")
        if "throughwall" in has and self.zone is None:
            raise ValueError("'throughwall' requires a monitor zone")


@dataclass(frozen=True)
class StepResult:
    index: int
    name: str
    scene: Scene
    true_range_m: float | None
    profile: RangeProfile
    peaks: tuple[Peak, ...]  # picked by the rrm stage only; () without it
    # One entry per non-reference peak: (peak, rrm, class or None).
    readings: tuple[tuple[Peak, float, TargetClass | None], ...]
    occupancy: OccupancyReport | None
    # The approach rule over this step's report and all before it; None without throughwall.
    approach: ApproachStatus | None
    safety: SafetyState | None


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    baseline: Baseline | None
    steps: tuple[StepResult, ...]


def apply_mutations(scene: Scene, mutations: tuple[Mutation, ...], **changes) -> Scene:
    """Apply add/move/remove mutations, returning a new scene; changes
    replaces other fields of scene in the same build. With neither, scene
    itself comes back unbuilt."""
    if not mutations and not changes:
        return scene
    scatterers = list(scene.scatterers)
    for m in mutations:
        if isinstance(m, AddScatterer):
            scatterers.append(m.scatterer)
        elif isinstance(m, MoveScatterer):
            hits = [i for i, s in enumerate(scatterers) if s.id == m.scatterer_id]
            if not hits:
                raise ValueError(f"no scatterer with id '{m.scatterer_id}' to move")
            scatterers[hits[0]] = replace(scatterers[hits[0]], range_m=m.range_m)
        elif isinstance(m, RemoveScatterer):
            hits = [i for i, s in enumerate(scatterers) if s.id == m.scatterer_id]
            if not hits:
                raise ValueError(f"no scatterer with id '{m.scatterer_id}' to remove")
            del scatterers[hits[0]]
        else:
            raise ValueError(f"unknown mutation {m!r}")
    return replace(scene, scatterers=tuple(scatterers), **changes)


def _declared_target_range(step: ScenarioStep) -> float | None:
    # The range of the last added or moved scatterer, unless it was removed after.
    target_id, range_m = None, None
    for m in step.mutations:
        if isinstance(m, AddScatterer):
            target_id, range_m = m.scatterer.id, m.scatterer.range_m
        elif isinstance(m, MoveScatterer):
            target_id, range_m = m.scatterer_id, m.range_m
        elif isinstance(m, RemoveScatterer) and m.scatterer_id == target_id:
            range_m = None
    return range_m


def _empty_room_baseline(scene: Scene, chirp: ChirpConfig, hint_m: float | None) -> Baseline:
    """The baseline of one Hann-windowed empty-room scan; capture_baseline reads hint_m."""
    return capture_baseline([range_profile(synthesize_beat(scene, chirp), Window.HANN)], hint_m)


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute every step through the configured stages.

    Any stage failure aborts the run with a ScenarioError naming the step
    index and stage.
    """
    base = scenario.base_scene
    baseline: Baseline | None = None
    if "rrm" in scenario.pipeline or "throughwall" in scenario.pipeline:
        baseline = _empty_room_baseline(base, scenario.chirp, scenario.baseline_hint_m)
    # Fresh noise per scan, stable reflector phases across the whole run:
    # the room does not move between scans, the noise does.
    scans = (
        (base, {"rng_seed": base.rng_seed + 1 + i, "phase_seed": base.effective_phase_seed})
        for i in range(len(scenario.steps))
    )
    return RunResult(scenario, baseline, tuple(scan_steps(scenario, baseline, scans)))


def scan_steps(
    scenario: Scenario, baseline: Baseline | None, scans: Iterable[tuple[Scene, dict]]
) -> Iterator[StepResult]:
    """Build each step's scene and run the scenario's stages on it, yielding
    each step's result before the next scan is read.

    Each scan is a scene and the field changes (new seeds, say) that go
    into the same build as the step's mutations, so a caller can feed scans
    as they arrive. The rrm and throughwall stages read baseline. With the
    throughwall stage, each result carries the running approach status.

    A ValueError from a stage raises a ScenarioError naming the step index
    and name and the stage; errors raised while producing the next scan pass
    through unchanged.
    """
    pipeline = scenario.pipeline
    state = INITIAL_STATE
    ranges: list[float] = []  # the strongest range of each occupied scan so far
    for i, (step, (scan, changes)) in enumerate(zip(scenario.steps, scans)):
        stage = "profile"
        try:
            scene = apply_mutations(scan, step.mutations, **changes)
            prof = range_profile(synthesize_beat(scene, scenario.chirp), Window.HANN)

            peaks: tuple[Peak, ...] = ()
            readings: list[tuple[Peak, float, TargetClass | None]] = []
            if "rrm" in pipeline:
                stage = "rrm"
                peaks = tuple(
                    detect_peaks(prof, scenario.detect_min_prominence, scenario.detect_min_rsa)
                )
                ref_bin = baseline.reference_feature.bin_index
                for p in peaks:
                    if abs(p.bin_index - ref_bin) <= REFERENCE_EXCLUSION_BINS:
                        continue
                    stage = "rrm"
                    ratio = rrm_compensated(p, baseline)
                    cls = None
                    if "classify" in pipeline:
                        stage = "classify"
                        cls = classify(ratio, scenario.bands)
                    readings.append((p, ratio, cls))

            occupancy = approach = None
            if "throughwall" in pipeline:
                stage = "throughwall"
                occupancy = detect_occupancy(baseline, prof, scenario.zone, scan_index=i)
                if occupancy.occupied:
                    ranges.append(occupancy.strongest().range_m)
                approach = _trend_status(ranges, occupancy.bin_spacing_m)

            safety_state = None
            if "safety" in pipeline:
                stage = "safety"
                if "classify" in pipeline:
                    state = update_tier(
                        state, [(p, cls) for p, _, cls in readings], scenario.tier_config
                    )
                if occupancy is not None:
                    state = update_door_policy(state, occupancy)
                safety_state = state
        except ValueError as exc:
            raise ScenarioError(f"step {i} ('{step.name}') stage '{stage}': {exc}") from exc

        yield StepResult(
            index=i,
            name=step.name,
            scene=scene,
            true_range_m=_declared_target_range(step),
            profile=prof,
            peaks=peaks,
            readings=tuple(readings),
            occupancy=occupancy,
            approach=approach,
            safety=safety_state,
        )


# ---------------------------------------------------------------------------
# Built-in scenarios


def _human_sweep() -> Scenario:
    base = Scene(walls=(Wall("back_wall", 6.0, LAB_WALL),), rng_seed=7)
    steps = tuple(
        ScenarioStep(
            f"human_at_{r:.0f}m",
            (
                AddScatterer(Scatterer("person", r, HUMAN_BODY)),
            ),
        )
        for r in (1.0, 2.0, 3.0, 4.0)
    )
    return Scenario(
        name="human_sweep",
        base_scene=base,
        steps=steps,
        pipeline=("profile", "rrm", "classify", "safety"),
        baseline_hint_m=6.0,
    )


def _copper_traverse() -> Scenario:
    base = Scene(
        walls=(
            Wall("partition", 0.10, PLASTERBOARD),
            Wall("far_wall", 2.60, PLASTERBOARD),
        ),
        rng_seed=11,
    )
    steps = tuple(
        ScenarioStep(
            f"position_{tag}",
            (
                AddScatterer(Scatterer("copper_sheet", r, SHEET_METAL)),
            ),
        )
        for tag, r in (("A", 2.2), ("B", 1.6), ("C", 1.0), ("D", 0.4))
    )
    return Scenario(
        name="copper_traverse",
        base_scene=base,
        steps=steps,
        pipeline=("profile", "throughwall", "safety"),
        baseline_hint_m=2.60,
        zone=MonitorZone(near_m=0.10, far_m=2.60),
    )


BUILTIN_SCENARIOS = {"human_sweep": _human_sweep, "copper_traverse": _copper_traverse}


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(f"unknown scenario '{name}'; built-ins: {', '.join(BUILTIN_SCENARIOS)}")
    return BUILTIN_SCENARIOS[name]()


# ---------------------------------------------------------------------------
# Deterministic writers


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.9g}"


def summary_to_csv(result: RunResult) -> str:
    """One row per step for its subject, the strongest non-reference peak.

    Requires the rrm stage; a step with no subject leaves the last three
    columns blank.
    """
    if "rrm" not in result.scenario.pipeline:
        raise ValueError("summary_to_csv needs a run that included the 'rrm' stage")
    lines = ["step,true_range_m,detected_range_m,rrm,class"]
    for step in result.steps:
        detected = ",,"
        if step.readings:
            peak, ratio, cls = max(step.readings, key=lambda entry: entry[0].rsa)
            detected = f"{_fmt(peak.range_m)},{_fmt(ratio)},{'' if cls is None else str(cls)}"
        lines.append(f"{step.name},{_fmt(step.true_range_m)},{detected}")
    return "\n".join(lines) + "\n"


def classification_to_csv(steps: Iterable[StepResult]) -> str:
    lines = ["peak_range_m,rsa,rrm,class"]
    for step in steps:
        for peak, ratio, cls in step.readings:
            lines.append(
                f"{peak.range_m:.9g},{peak.rsa:.9g},{ratio:.9g},"
                f"{'' if cls is None else str(cls)}"
            )
    return "\n".join(lines) + "\n"


def monitor_to_csv(steps: Iterable[StepResult]) -> str:
    """scan_index,occupied,range_m,excess_rsa,status; one row per step of a
    throughwall run, whose status is that step's running approach status."""
    lines = ["scan_index,occupied,range_m,excess_rsa,status"]
    for step in steps:
        report = step.occupancy
        strongest = report.strongest()
        r, e = ("", "") if strongest is None else (_fmt(strongest.range_m), _fmt(strongest.rsa))
        lines.append(f"{report.scan_index},{report.occupied},{r},{e},{step.approach.value}")
    return "\n".join(lines) + "\n"


def safety_log(result: RunResult) -> str:
    lines = [
        format_log_line(step.index, step.safety)
        for step in result.steps
        if step.safety is not None
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]", "_", name)


def _write(out_dir: str | Path, name: str, text: str) -> Path:
    """Write text to out_dir/name, making out_dir if needed; returns the path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


def write_run_result(result: RunResult, out_dir: str | Path) -> list[Path]:
    """Write every applicable artifact; returns the paths written."""
    written = [
        _write(out_dir, f"profile_{step.index:02d}_{_safe_name(step.name)}.csv",
               profile_to_csv(step.profile))
        for step in result.steps
    ]
    pipeline = result.scenario.pipeline
    if "rrm" in pipeline:
        written.append(_write(out_dir, "summary.csv", summary_to_csv(result)))
        written.append(_write(out_dir, "classification.csv", classification_to_csv(result.steps)))
    if "throughwall" in pipeline:
        written.append(_write(out_dir, "monitor.csv", monitor_to_csv(result.steps)))
    if "safety" in pipeline:
        written.append(_write(out_dir, "safety.log", safety_log(result)))
    return written
