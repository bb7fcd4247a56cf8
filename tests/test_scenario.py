import csv
import io
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallsense import (
    DEFAULT_BANDS,
    DEFAULT_CHIRP,
    HUMAN_BODY,
    LAB_WALL,
    SHEET_METAL,
    AddScatterer,
    ApproachStatus,
    MonitorZone,
    MoveScatterer,
    OccupancyReport,
    Peak,
    RemoveScatterer,
    SafetyTier,
    Scatterer,
    Scenario,
    ScenarioError,
    ScenarioStep,
    Scene,
    TargetClass,
    Wall,
    apply_mutations,
    builtin_scenario,
    run_scenario,
    summary_to_csv,
    track_approach,
    write_run_result,
)
from wallsense.scenario import monitor_to_csv

BACK_WALL = Wall("back", 6.0, LAB_WALL)


def _person(sid, r):
    return Scatterer(sid, r, HUMAN_BODY)


def _summary_rows(result):
    return list(csv.DictReader(io.StringIO(summary_to_csv(result))))


def _scenario(steps, pipeline=("profile",), base=None, **kwargs):
    return Scenario(
        name="test",
        base_scene=base if base is not None else Scene(walls=(BACK_WALL,)),
        steps=tuple(steps),
        pipeline=tuple(pipeline),
        **kwargs,
    )


class TestApplyMutations:
    def test_add_move_remove(self):
        scene = Scene(scatterers=(_person("a", 2.0),))
        scene = apply_mutations(scene, (AddScatterer(_person("b", 3.0)),))
        scene = apply_mutations(scene, (MoveScatterer("a", 2.5),))
        assert [(s.id, s.range_m) for s in scene.scatterers] == [("a", 2.5), ("b", 3.0)]
        scene = apply_mutations(scene, (RemoveScatterer("a"),))
        assert [s.id for s in scene.scatterers] == ["b"]

    def test_duplicate_add_rejected(self):
        scene = Scene(scatterers=(_person("a", 2.0),))
        with pytest.raises(ValueError, match="already present"):
            apply_mutations(scene, (AddScatterer(_person("a", 3.0)),))

    def test_move_of_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="no scatterer with id 'ghost' to move"):
            apply_mutations(Scene(), (MoveScatterer("ghost", 1.0),))

    def test_remove_of_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="no scatterer with id 'ghost' to remove"):
            apply_mutations(Scene(), (RemoveScatterer("ghost"),))

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown mutation 'grow'$"):
            apply_mutations(Scene(), ("grow",))

    def test_original_scene_is_untouched(self):
        scene = Scene(scatterers=(_person("a", 2.0),))
        apply_mutations(scene, (MoveScatterer("a", 4.0),))
        assert scene.scatterers[0].range_m == 2.0


class TestStepIsolation:
    def test_steps_start_from_the_base_scene(self):
        steps = [
            ScenarioStep("first", (AddScatterer(_person("a", 2.0)),)),
            ScenarioStep("second", (AddScatterer(_person("b", 3.0)),)),
        ]
        result = run_scenario(_scenario(steps))
        assert [s.id for s in result.steps[0].scene.scatterers] == ["a"]
        assert [s.id for s in result.steps[1].scene.scatterers] == ["b"]

    def test_moves_do_not_leak_forward(self):
        base = Scene(scatterers=(_person("a", 2.0),), walls=(BACK_WALL,))
        steps = [ScenarioStep("moved", (MoveScatterer("a", 3.0),)), ScenarioStep("rest")]
        result = run_scenario(_scenario(steps, base=base))
        assert result.steps[0].scene.scatterers[0].range_m == 3.0
        assert result.steps[1].scene.scatterers[0].range_m == 2.0

    def test_per_step_seeds(self):
        base = Scene(walls=(BACK_WALL,), rng_seed=7)
        steps = [ScenarioStep(f"s{i}") for i in range(3)]
        result = run_scenario(_scenario(steps, base=base))
        assert [s.scene.rng_seed for s in result.steps] == [8, 9, 10]
        # reflector phases stay pinned to the base scene across all steps
        assert all(s.scene.phase_seed == 7 for s in result.steps)

    def test_true_range_tracks_the_last_placing_mutation(self):
        base = Scene(scatterers=(_person("a", 2.0),), walls=(BACK_WALL,))
        steps = [
            ScenarioStep("added", (AddScatterer(_person("b", 3.0)),)),
            ScenarioStep("moved", (MoveScatterer("a", 1.5),)),
            ScenarioStep("untouched"),
            ScenarioStep("add+remove", (AddScatterer(_person("b", 3.0)), RemoveScatterer("b"))),
            ScenarioStep(
                "add+remove-another", (AddScatterer(_person("b", 3.0)), RemoveScatterer("a"))
            ),
        ]
        result = run_scenario(_scenario(steps, base=base))
        assert [s.true_range_m for s in result.steps] == [3.0, 1.5, None, None, 3.0]


class TestPipelineValidation:
    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown pipeline stage 'fft'"):
            run_scenario(_scenario([], pipeline=("profile", "fft")))

    def test_profile_stage_is_prerequisite(self):
        with pytest.raises(ValueError, match="'profile' stage"):
            run_scenario(_scenario([], pipeline=("rrm",), baseline_hint_m=6.0))

    def test_classify_needs_rrm(self):
        with pytest.raises(ValueError, match="'classify' requires"):
            run_scenario(_scenario([], pipeline=("profile", "classify")))

    def test_an_absent_hint_anchors_on_the_strongest_baseline_peak(self):
        pipeline = ("profile", "rrm", "throughwall")
        hinted, hintless = (
            run_scenario(_scenario([], pipeline, zone=MonitorZone(0.5, 5.5), baseline_hint_m=hint))
            for hint in (6.0, None)
        )
        anchor = hintless.baseline.reference_feature
        assert anchor == hinted.baseline.reference_feature
        assert anchor.rsa == hintless.baseline.profile.rsa.max()

    def test_throughwall_needs_a_zone(self):
        with pytest.raises(ValueError, match="monitor zone"):
            run_scenario(
                _scenario([], pipeline=("profile", "throughwall"), baseline_hint_m=6.0)
            )

    def test_safety_needs_classify_or_throughwall(self):
        # Without either, the safety log would read Normal with a person in front.
        message = "'safety' requires the 'classify' or 'throughwall' stage"
        with pytest.raises(ValueError, match=message):
            run_scenario(
                _scenario([], pipeline=("profile", "rrm", "safety"), baseline_hint_m=6.0)
            )


class TestRunScenario:
    def test_zero_steps(self):
        result = run_scenario(
            _scenario([], pipeline=("profile", "rrm"), baseline_hint_m=6.0)
        )
        assert result.steps == ()
        assert result.baseline is not None
        assert _summary_rows(result) == []

    def test_profile_only_run_has_no_optional_artifacts(self):
        result = run_scenario(_scenario([ScenarioStep("only")]))
        step = result.steps[0]
        assert result.baseline is None
        assert step.readings == ()
        assert step.occupancy is None
        assert step.safety is None
        assert step.peaks == ()  # only the rrm stage picks peaks

    def test_throughwall_only_run_has_no_peaks(self, traverse_result):
        steps = traverse_result.steps
        assert all(step.peaks == () and step.occupancy.occupied for step in steps)

    def test_summary_requires_the_rrm_stage(self):
        result = run_scenario(_scenario([ScenarioStep("only")]))
        with pytest.raises(ValueError, match="'rrm' stage"):
            summary_to_csv(result)

    @pytest.mark.parametrize("field", ["detect_min_rsa", "detect_min_prominence"])
    def test_nan_detector_threshold_is_rejected(self, field):
        # NaN would fail every height test and drop the person at 1 m unseen.
        sweep = replace(builtin_scenario("human_sweep"), **{field: math.nan})
        message = r"step 0 \('human_at_1m'\) stage 'rrm': thresholds must be >= 0, got "
        with pytest.raises(ScenarioError, match=message + field.removeprefix("detect_") + "=nan"):
            run_scenario(sweep)

    @pytest.mark.parametrize("hint", [math.nan, math.inf])
    def test_non_finite_baseline_hint_is_rejected(self, hint):
        sweep = replace(builtin_scenario("human_sweep"), baseline_hint_m=hint)
        with pytest.raises(ValueError, match=r"^feature_range_hint_m must be a finite number"):
            run_scenario(sweep)

    def test_stage_failures_carry_step_and_stage(self):
        steps = [
            ScenarioStep("fine", (AddScatterer(_person("a", 2.0)),)),
            ScenarioStep("oops", (AddScatterer(_person("b", 9.5)),)),
        ]
        with pytest.raises(ScenarioError, match=r"step 1 \('oops'\) stage 'profile'"):
            run_scenario(_scenario(steps))

    def test_zero_bandwidth_chirp_is_a_value_error(self):
        traverse = builtin_scenario("copper_traverse")
        with pytest.raises(ValueError, match=r"^chirp\.bandwidth_hz: expected a positive number"):
            run_scenario(replace(traverse, chirp=replace(DEFAULT_CHIRP, bandwidth_hz=0.0)))

    def test_baseline_capture_failures_surface_directly(self):
        with pytest.raises(ValueError, match="reference feature not found"):
            run_scenario(
                _scenario([], pipeline=("profile", "rrm"), baseline_hint_m=3.0)
            )

    def test_step_with_no_subject_summarizes_blank(self):
        result = run_scenario(
            _scenario(
                [ScenarioStep("empty")],
                pipeline=("profile", "rrm"),
                baseline_hint_m=6.0,
            )
        )
        row = _summary_rows(result)[0]
        assert (row["detected_range_m"], row["rrm"], row["class"]) == ("", "", "")
        assert summary_to_csv(result).splitlines()[1] == "empty,,,,"


@pytest.fixture(scope="module")
def sweep_result():
    return run_scenario(builtin_scenario("human_sweep"))


@pytest.fixture(scope="module")
def traverse_result():
    return run_scenario(builtin_scenario("copper_traverse"))


class TestHumanSweep:
    @pytest.fixture
    def result(self, sweep_result):
        return sweep_result

    def test_every_step_classifies_human(self, result):
        rows = _summary_rows(result)
        assert [r["class"] for r in rows] == [str(TargetClass.HUMAN)] * 4

    def test_localization_within_one_bin(self, result):
        spacing = result.steps[0].profile.bin_spacing_m
        for row in _summary_rows(result):
            assert abs(float(row["detected_range_m"]) - float(row["true_range_m"])) <= spacing

    def test_rrm_values_sit_inside_the_human_band(self, result):
        for row in _summary_rows(result):
            assert DEFAULT_BANDS.infrastructure_max < float(row["rrm"]) <= DEFAULT_BANDS.human_max

    def test_safety_tier_sequence(self, result):
        tiers = [s.safety.tier for s in result.steps]
        assert tiers == [
            SafetyTier.STOP,
            SafetyTier.SLOW,
            SafetyTier.SLOW,
            SafetyTier.NORMAL,
        ]
        caps = [s.safety.speed_cap for s in result.steps]
        assert caps == [0.0, 0.25, 0.25, 1.0]

    def test_no_monitoring_artifacts(self, result):
        assert result.track is None
        assert all(s.occupancy is None for s in result.steps)


class TestCopperTraverse:
    @pytest.fixture
    def result(self, traverse_result):
        return traverse_result

    def test_every_position_is_detected_within_one_bin(self, result):
        truths = [2.2, 1.6, 1.0, 0.4]
        spacing = result.steps[0].profile.bin_spacing_m
        for step, truth in zip(result.steps, truths):
            assert step.occupancy.occupied
            assert len(step.occupancy.detections) == 1
            assert abs(step.occupancy.strongest().range_m - truth) <= spacing

    def test_track_is_approaching(self, result):
        assert result.track.status is ApproachStatus.APPROACHING
        assert len(result.track.ranges_m) == 4

    def test_door_stays_blocked(self, result):
        for step in result.steps:
            assert not step.safety.door_entry_allowed
            assert step.safety.cause.startswith("door blocked at ")

    def test_tier_is_untouched_without_classification(self, result):
        assert all(s.safety.tier is SafetyTier.NORMAL for s in result.steps)

    def test_unknown_builtin_name(self):
        with pytest.raises(ValueError, match="unknown scenario 'x'"):
            builtin_scenario("x")


class TestWriters:
    def test_human_sweep_artifacts(self, tmp_path):
        result = run_scenario(builtin_scenario("human_sweep"))
        paths = write_run_result(result, tmp_path / "out")
        names = [p.name for p in paths]
        assert names == [
            "profile_00_human_at_1m.csv",
            "profile_01_human_at_2m.csv",
            "profile_02_human_at_3m.csv",
            "profile_03_human_at_4m.csv",
            "summary.csv",
            "classification.csv",
            "safety.log",
        ]
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0] == "step,true_range_m,detected_range_m,rrm,class"
        assert len(summary) == 5
        assert all(line.endswith(",Human") for line in summary[1:])
        log = (tmp_path / "out" / "safety.log").read_text().splitlines()
        assert log[0].startswith("t=0 tier=Stop cap=0 door=True cause=human at ")

    def test_copper_traverse_artifacts(self, tmp_path):
        result = run_scenario(builtin_scenario("copper_traverse"))
        paths = write_run_result(result, tmp_path / "out")
        names = [p.name for p in paths]
        assert "monitor.csv" in names and "safety.log" in names
        assert "summary.csv" not in names
        monitor = (tmp_path / "out" / "monitor.csv").read_text().splitlines()
        assert monitor[0] == "scan_index,occupied,range_m,excess_rsa,status"
        assert [line.split(",")[-1] for line in monitor[1:]] == [
            "Static",
            "Static",
            "Approaching",
            "Approaching",
        ]
        assert [line.split(",")[1] for line in monitor[1:]] == ["True"] * 4

    @pytest.mark.parametrize("name", ["human_sweep", "copper_traverse"])
    def test_builtins_write_the_same_bytes_without_their_hint(self, name, tmp_path):
        scenario = builtin_scenario(name)
        hinted = write_run_result(run_scenario(scenario), tmp_path / "hinted")
        hintless = write_run_result(
            run_scenario(replace(scenario, baseline_hint_m=None)), tmp_path / "hintless"
        )
        assert [p.name for p in hintless] == [p.name for p in hinted]
        assert [p.read_bytes() for p in hintless] == [p.read_bytes() for p in hinted]

    def test_reruns_are_byte_identical(self, tmp_path):
        for name in ("human_sweep", "copper_traverse"):
            a = write_run_result(run_scenario(builtin_scenario(name)), tmp_path / "a" / name)
            b = write_run_result(run_scenario(builtin_scenario(name)), tmp_path / "b" / name)
            assert [p.name for p in a] == [p.name for p in b]
            for pa, pb in zip(a, b):
                assert pa.read_bytes() == pb.read_bytes()


def _prefix_statuses(reports, zone):
    """Oracle: the running status as first defined, track_approach over every prefix."""
    return [track_approach(reports[: k + 1], zone).status.value for k in range(len(reports))]


def _csv_statuses(result):
    return [line.rsplit(",", 1)[1] for line in monitor_to_csv(result).splitlines()[1:]]


class TestMonitorRunningStatus:
    def test_one_pass_status_equals_prefix_tracking(self):
        base = builtin_scenario("copper_traverse")
        positions = [None, 2.2, 1.9, 1.6, 1.3, 1.3, None, 1.6, 1.9, 2.2, None, 1.0]
        steps = [
            ScenarioStep(f"scan_{i}", () if r is None else (
                AddScatterer(Scatterer("sheet", r, SHEET_METAL)),
            ))
            for i, r in enumerate(positions)
        ]
        result = run_scenario(replace(base, steps=tuple(steps)))
        reports = [s.occupancy for s in result.steps]
        want = _prefix_statuses(reports, base.zone)
        assert set(want) == {"Empty", "Static", "Approaching", "Receding"}
        assert _csv_statuses(result) == want

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.floats(0.2, 2.4)), max_size=12),
        st.floats(0.01, 0.3),
    )
    def test_one_pass_status_equals_prefix_tracking_on_any_run(self, ranges, spacing):
        reports = [
            OccupancyReport(
                r is not None,
                () if r is None else (Peak(r, 0.05, 0.05, round(r / spacing)),),
                i,
                spacing,
            )
            for i, r in enumerate(ranges)
        ]
        result = SimpleNamespace(steps=[SimpleNamespace(occupancy=r) for r in reports])
        assert _csv_statuses(result) == _prefix_statuses(reports, MonitorZone(0.1, 2.6))
