import math
import re

import numpy as np
import pytest

from wallsense import (
    DEFAULT_BANDS,
    DEFAULT_CHIRP,
    HUMAN_BODY,
    LAB_WALL,
    Baseline,
    ClassBands,
    Peak,
    REFERENCE_RANGE_M,
    RangeProfile,
    Scatterer,
    SHEET_METAL,
    Scene,
    TargetClass,
    Wall,
    calibrate_bands,
    capture_baseline,
    classify,
    range_profile,
    rrm,
    rrm_compensated,
    synthesize_beat,
)

I = TargetClass.INFRASTRUCTURE
H = TargetClass.HUMAN
M = TargetClass.METALLIC


def _wall_profile(noise=0.0, seed=0):
    scene = Scene(
        walls=(Wall("back", 6.0, LAB_WALL),),
        noise_amplitude=noise,
        rng_seed=seed,
        phase_seed=7,
    )
    return range_profile(synthesize_beat(scene, DEFAULT_CHIRP))


def _dummy_baseline(ref_range_m, ref_rsa, label="baseline"):
    prof = RangeProfile(np.zeros(500), DEFAULT_CHIRP)
    ref = Peak(ref_range_m, ref_rsa, ref_rsa, int(round(ref_range_m / 0.0749481145)))
    return Baseline(prof, ref, label)


class TestCaptureBaseline:
    def test_locks_onto_wall_near_hint(self):
        base = capture_baseline([_wall_profile()], 6.0)
        assert abs(base.reference_feature.range_m - 6.0) <= base.profile.bin_spacing_m
        # hann halves an off-bin-at-most-slightly tone: A = 0.05/36
        assert base.reference_feature.rsa == pytest.approx(0.05 / 36.0 / 2.0, rel=0.1)
        assert base.label == "baseline"

    def test_no_feature_near_hint(self):
        with pytest.raises(ValueError, match="reference feature not found within 3 bins of 3.0 m"):
            capture_baseline([_wall_profile()], 3.0)

    @pytest.mark.parametrize("hint", [1e300, 1e308, 37.7, -0.3, -1e308])
    def test_hint_outside_the_profile_is_named(self, hint):
        # 500 bins of 0.0749 m: no bin lies within 3 of bin 503 or of bin -4.
        message = (
            f"feature_range_hint_m {hint} m is more than 3 bins outside the profile, "
            "which spans 0 to 37.4741 m"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            capture_baseline([_wall_profile()], hint)

    def test_hint_window_is_plus_minus_three_bins(self):
        # wall sits at bin 80; hint 6.2 m rounds to bin 83, hint 6.4 m to bin 85
        capture_baseline([_wall_profile()], 6.2)
        with pytest.raises(ValueError, match="not found"):
            capture_baseline([_wall_profile()], 6.4)

    def test_averages_bin_wise(self):
        profiles = [_wall_profile(noise=1e-3, seed=s) for s in range(5)]
        base = capture_baseline(profiles, 6.0)
        expected = np.mean([p.rsa for p in profiles], axis=0)
        assert np.array_equal(base.profile.rsa, expected)

    def test_rejects_mixed_chirps(self):
        from wallsense import ChirpConfig

        other = ChirpConfig(1e9, 1e-3, 1e6)
        scene = Scene(walls=(Wall("back", 6.0, LAB_WALL),))
        profiles = [
            _wall_profile(),
            range_profile(synthesize_beat(scene, other)),
        ]
        with pytest.raises(ValueError, match="chirp"):
            capture_baseline(profiles, 6.0)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one profile"):
            capture_baseline([], 6.0)

    def test_no_hint_anchors_on_the_strongest_peak(self):
        scene = Scene(
            scatterers=(Scatterer("plate", 2.0, SHEET_METAL),),
            walls=(Wall("back", 6.0, LAB_WALL),),
        )
        prof = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
        base = capture_baseline([prof], None)
        assert base.reference_feature.rsa == prof.rsa.max()
        assert base.reference_feature == capture_baseline([prof], 2.0).reference_feature

    def test_no_hint_and_no_peaks(self):
        prof = range_profile(synthesize_beat(Scene(), DEFAULT_CHIRP))
        with pytest.raises(ValueError, match="baseline profile has no peaks to anchor on"):
            capture_baseline([prof], None)


class TestRrm:
    def test_plain_ratio(self):
        base = _dummy_baseline(6.0, 0.004)
        assert rrm(Peak(2.0, 0.006, 0.006, 27), base) == pytest.approx(1.5, rel=1e-12)

    def test_scale_invariant(self):
        a = rrm(Peak(2.0, 0.006, 0.006, 27), _dummy_baseline(6.0, 0.004))
        b = rrm(Peak(2.0, 0.0222, 0.0222, 27), _dummy_baseline(6.0, 0.0148))
        assert a == pytest.approx(b, rel=1e-12)

    def test_reference_ratio_spot_values(self):
        # A target matching the reference reads exactly 1; stronger targets
        # read as their plain amplitude multiple.
        base = _dummy_baseline(6.0, 0.004)
        for factor in (1.0, 1.88, 14.93):
            ratio = rrm(Peak(2.0, 0.004 * factor, 0.004 * factor, 27), base)
            assert ratio == pytest.approx(factor, rel=1e-12)

    def test_guards_against_nonpositive_amplitudes(self):
        with pytest.raises(ValueError, match="reference rsa"):
            rrm(Peak(2.0, 0.01, 0.01, 27), _dummy_baseline(6.0, 0.0))
        with pytest.raises(ValueError, match="target peak rsa"):
            rrm(Peak(2.0, 0.0, 0.0, 27), _dummy_baseline(6.0, 0.004))


class TestSpreadingCompensation:
    def test_scales_by_range_squared(self):
        # target 0.02 * 3^2 over reference 0.01 * 2^2
        peak = Peak(3.0, 0.02, 0.01, 40)
        ratio = rrm_compensated(peak, _dummy_baseline(2.0, 0.01))
        assert ratio == pytest.approx(0.18 / 0.04, rel=1e-12)

    def test_identity_at_reference_range(self):
        peak = Peak(REFERENCE_RANGE_M, 0.07, 0.03, 13)
        base = _dummy_baseline(REFERENCE_RANGE_M, 0.05)
        assert rrm_compensated(peak, base) == rrm(peak, base)

    def test_compensated_rrm_recovers_reflectivity_ratio(self):
        # target rsa*R^2 over reference rsa*R^2 cancels the geometry; with
        # ideal inverse-square amplitudes only reflectivities remain.
        base = _dummy_baseline(6.0, 0.05 / 36.0)
        ratio = rrm_compensated(Peak(2.0, 0.08 / 4.0, 0.01, 27), base)
        assert ratio == pytest.approx(0.08 / 0.05, rel=1e-12)

    def test_end_to_end_human_lands_in_band(self):
        scene = Scene(
            scatterers=(Scatterer("person", 2.0, HUMAN_BODY),),
            walls=(Wall("back", 6.0, LAB_WALL),),
        )
        prof = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
        base = capture_baseline([_wall_profile()], 6.0)
        from wallsense import detect_peaks

        target = max(
            (p for p in detect_peaks(prof, 1e-4, 2e-4) if abs(p.range_m - 2.0) < 0.5),
            key=lambda p: p.rsa,
        )
        assert classify(rrm_compensated(target, base)) is H


class TestClassify:
    def test_band_boundaries_are_inclusive_upper_edges(self):
        bands = ClassBands(1.2, 4.0)
        assert classify(1.2, bands) is I
        assert classify(1.2000001, bands) is H
        assert classify(4.0, bands) is H
        assert classify(4.0000001, bands) is M

    def test_default_bands(self):
        assert DEFAULT_BANDS.infrastructure_max == pytest.approx(math.sqrt(1.32), rel=1e-12)
        assert DEFAULT_BANDS.human_max == pytest.approx(math.sqrt(1.88 * 7.51), rel=1e-12)
        assert classify(1.0) is I
        assert classify(1.6) is H
        assert classify(12.0) is M

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="rrm must be > 0"):
            classify(0.0)

    def test_str_is_title_case(self):
        assert [str(c) for c in (I, H, M)] == ["Infrastructure", "Human", "Metallic"]

    def test_invalid_bands(self):
        with pytest.raises(ValueError, match="bands"):
            ClassBands(0.9, 2.0)
        with pytest.raises(ValueError, match="bands"):
            ClassBands(2.0, 2.0)


class TestCalibrateBands:
    def test_three_class_geometric_means(self):
        bands = calibrate_bands([(1.0, I), (2.0, H), (10.0, M)])
        assert bands.infrastructure_max == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert bands.human_max == pytest.approx(math.sqrt(20.0), rel=1e-12)

    def test_reference_nine_rows_reproduce_default_bands(self):
        rows = [
            (1.0, I),
            (1.55, H),
            (1.88, H),
            (1.51, H),
            (1.32, H),
            (14.93, M),
            (10.79, M),
            (7.51, M),
            (13.52, M),
        ]
        bands = calibrate_bands(rows)
        assert bands.infrastructure_max == pytest.approx(
            DEFAULT_BANDS.infrastructure_max, rel=1e-12
        )
        assert bands.human_max == pytest.approx(DEFAULT_BANDS.human_max, rel=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            calibrate_bands([(1.3, H), (1.6, H)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="not separable"):
            calibrate_bands([(1.0, I), (5.0, H), (4.0, M)])

    def test_infrastructure_and_metallic_only_rejected(self):
        with pytest.raises(ValueError, match="no Human samples"):
            calibrate_bands([(1.0, I), (9.0, M)])

    def test_without_metallic_upper_edge_is_unbounded(self):
        bands = calibrate_bands([(1.0, I), (1.5, H), (2.0, H)])
        assert bands.infrastructure_max == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert bands.human_max == math.inf
        assert classify(1e9, bands) is H

    def test_without_infrastructure_lower_edge_anchors_at_one(self):
        bands = calibrate_bands([(1.5, H), (2.0, H), (8.0, M)])
        assert bands.infrastructure_max == 1.0
        assert bands.human_max == pytest.approx(4.0, rel=1e-12)

    def test_anchor_conflicts_with_sub_unity_human(self):
        with pytest.raises(ValueError, match="anchor"):
            calibrate_bands([(0.9, H), (8.0, M)])

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError, match="must be > 0"):
            calibrate_bands([(0.0, I), (2.0, H)])

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_non_finite_samples(self, value, first):
        # Accepted, inf as the only Metallic sample made Metallic unreachable,
        # and a NaN was dropped or broke the bands depending on its row.
        rows = [(1.0, I), (2.0, H), (10.0, M)]
        rows.insert(0 if first else len(rows), (value, M if value == math.inf else H))
        with pytest.raises(ValueError, match=f"^rrm samples must be finite, got {value}$"):
            calibrate_bands(rows)

    def test_calibrated_bands_classify_their_own_samples(self):
        rows = [(1.0, I), (1.4, H), (1.9, H), (9.0, M), (15.0, M)]
        bands = calibrate_bands(rows)
        for value, cls in rows:
            assert classify(value, bands) is cls
