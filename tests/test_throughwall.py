import math
import re

import pytest

from wallsense import (
    DEFAULT_CHIRP,
    HUMAN_BODY,
    PLASTERBOARD,
    SHEET_METAL,
    ApproachStatus,
    MonitorZone,
    OccupancyReport,
    Peak,
    Scatterer,
    Scene,
    Wall,
    capture_baseline,
    detect_occupancy,
    range_profile,
    synthesize_beat,
    track_approach,
)

WALLS = (Wall("near", 0.10, PLASTERBOARD), Wall("far", 2.60, PLASTERBOARD))
ZONE = MonitorZone(0.10, 2.60)
SPACING = 0.0749481145


def _profile(scatterers=(), seed=0):
    scene = Scene(scatterers=scatterers, walls=WALLS, rng_seed=seed, phase_seed=3)
    return range_profile(synthesize_beat(scene, DEFAULT_CHIRP))


def _baseline():
    return capture_baseline([_profile()], 2.60)


def _report(scan_index, range_m=None, spacing=SPACING):
    dets = () if range_m is None else (Peak(range_m, 0.05, 0.05, int(range_m / spacing)),)
    return OccupancyReport(bool(dets), dets, scan_index, spacing)


class TestMonitorZone:
    def test_interval_shaves_guard_bins(self):
        lo, hi = ZONE.monitored_interval(SPACING)
        assert lo == pytest.approx(0.10 + 2 * SPACING)
        assert hi == pytest.approx(2.60 - 2 * SPACING)

    def test_zero_guard_bins_watch_the_whole_zone(self):
        assert MonitorZone(0.1, 2.6, guard_bins=0).monitored_interval(SPACING) == (0.1, 2.6)

    def test_validation(self):
        with pytest.raises(ValueError, match="near_m < far_m"):
            MonitorZone(2.0, 1.0)
        with pytest.raises(ValueError, match="near_m < far_m"):
            MonitorZone(1.0, 1.0)
        with pytest.raises(ValueError, match="near_m < far_m"):
            MonitorZone(0.0, 1.0)
        with pytest.raises(ValueError, match="excess_threshold"):
            MonitorZone(0.1, 2.6, excess_threshold=0.0)
        with pytest.raises(ValueError, match="guard_bins"):
            MonitorZone(0.1, 2.6, guard_bins=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_excess_threshold_must_be_finite(self, value):
        # Accepted, either value would report every scan empty.
        message = f"^excess_threshold must be finite and > 0, got {value}$"
        with pytest.raises(ValueError, match=message):
            MonitorZone(0.1, 2.6, excess_threshold=value)

    @pytest.mark.parametrize("field", ["near_m", "far_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_zone_edges_must_be_finite(self, field, value):
        # Accepted, far_m = inf watched the whole profile past near_m.
        edges = {"near_m": 0.1, "far_m": 2.6, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            MonitorZone(**edges)

    def test_nan_guard_bins_is_rejected(self):
        with pytest.raises(ValueError, match=r"^guard_bins must be >= 0, got nan$"):
            MonitorZone(0.1, 2.6, guard_bins=math.nan)


class TestDetectOccupancy:
    def test_empty_room_matches_its_own_baseline(self):
        report = detect_occupancy(_baseline(), _profile(), ZONE)
        assert not report.occupied
        assert report.detections == ()
        assert report.strongest() is None

    def test_sheet_inside_zone_is_found_within_one_bin(self):
        scan = _profile((Scatterer("sheet", 1.6, SHEET_METAL),))
        report = detect_occupancy(_baseline(), scan, ZONE, scan_index=4)
        assert report.occupied
        assert report.scan_index == 4
        assert abs(report.strongest().range_m - 1.6) <= SPACING

    def test_target_in_guard_margin_is_ignored(self):
        # far - guard = 2.45 m; a sheet at 2.55 m sits outside the interior
        scan = _profile((Scatterer("sheet", 2.55, SHEET_METAL),))
        assert not detect_occupancy(_baseline(), scan, ZONE).occupied

    def test_target_beyond_zone_is_ignored(self):
        scan = _profile((Scatterer("sheet", 3.5, SHEET_METAL),))
        assert not detect_occupancy(_baseline(), scan, ZONE).occupied

    def test_target_just_inside_near_edge_is_found(self):
        scan = _profile((Scatterer("sheet", 0.4, SHEET_METAL),))
        report = detect_occupancy(_baseline(), scan, ZONE)
        assert report.occupied
        assert abs(report.strongest().range_m - 0.4) <= SPACING

    def test_threshold_picks_strong_over_weak(self):
        scan = _profile(
            (
                Scatterer("person", 1.0, HUMAN_BODY),
                Scatterer("sheet", 1.6, SHEET_METAL),
            )
        )
        base = _baseline()
        loose = detect_occupancy(base, scan, ZONE)
        tight = detect_occupancy(base, scan, MonitorZone(0.10, 2.60, excess_threshold=0.05))
        assert len(loose.detections) == 2
        assert len(tight.detections) == 1
        assert abs(tight.strongest().range_m - 1.6) <= SPACING

    def test_detection_bins_index_the_full_profile(self):
        scan = _profile((Scatterer("sheet", 1.6, SHEET_METAL),))
        det = detect_occupancy(_baseline(), scan, ZONE).strongest()
        assert scan.ranges_m[det.bin_index] == pytest.approx(det.range_m)

    def test_chirp_mismatch_raises(self):
        from wallsense import ChirpConfig

        other = ChirpConfig(1e9, 1e-3, 1e6)
        scan = range_profile(
            synthesize_beat(Scene(walls=WALLS, phase_seed=3), other)
        )
        with pytest.raises(ValueError, match="chirp"):
            detect_occupancy(_baseline(), scan, ZONE)

    def test_guard_consuming_zone_raises(self):
        tiny = MonitorZone(1.0, 1.2)
        with pytest.raises(ValueError, match="guard bins consume"):
            detect_occupancy(_baseline(), _profile(), tiny)

    @pytest.mark.parametrize("guard_bins", [35, 10**308, 10**400], ids=["35", "1e308", "1e400"])
    def test_guard_bins_filling_the_zone_are_named(self, guard_bins):
        # 35 bins off each end cover the 5.1 m zone; 10**400 converts to no float.
        zone = MonitorZone(0.1, 5.2, guard_bins=guard_bins)
        message = (
            f"guard bins consume the whole zone (0.1, 5.2): guard_bins {guard_bins} "
            f"at a bin spacing of {SPACING:.6g} m"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            detect_occupancy(_baseline(), _profile(), zone)


class TestTrackApproach:
    def test_no_detections_is_empty(self):
        track = track_approach([_report(i) for i in range(4)], ZONE)
        assert track.status is ApproachStatus.EMPTY
        assert track.ranges_m == ()

    def test_stationary_target_is_static(self):
        track = track_approach([_report(i, 1.6) for i in range(4)], ZONE)
        assert track.status is ApproachStatus.STATIC
        assert track.ranges_m == (1.6, 1.6, 1.6, 1.6)

    def test_monotone_closing_is_approaching(self):
        reports = [_report(i, r) for i, r in enumerate([2.2, 1.6, 1.0, 0.4])]
        assert track_approach(reports, ZONE).status is ApproachStatus.APPROACHING

    def test_monotone_opening_is_receding(self):
        reports = [_report(i, r) for i, r in enumerate([0.4, 1.0, 1.6, 2.2])]
        assert track_approach(reports, ZONE).status is ApproachStatus.RECEDING

    def test_two_occupied_scans_are_not_a_trend(self):
        reports = [_report(0, 2.2), _report(1, 1.0)]
        assert track_approach(reports, ZONE).status is ApproachStatus.STATIC

    def test_sub_bin_jitter_is_static(self):
        # motion must exceed one bin spacing per scan to count
        reports = [_report(i, 1.6 - 0.03 * i) for i in range(4)]
        assert track_approach(reports, ZONE).status is ApproachStatus.STATIC

    @pytest.mark.parametrize(
        "ranges, status",
        [
            ((1.0, 0.75, 0.5), ApproachStatus.STATIC),
            ((0.5, 0.75, 1.0), ApproachStatus.STATIC),
            ((1.5, 1.0, 0.5), ApproachStatus.APPROACHING),
            ((0.5, 1.0, 1.5), ApproachStatus.RECEDING),
        ],
    )
    def test_a_trend_needs_steps_beyond_one_bin(self, ranges, status):
        # Binary-exact values: steps of exactly one 0.25 m bin, then of two.
        reports = [_report(i, r, spacing=0.25) for i, r in enumerate(ranges)]
        assert track_approach(reports, ZONE).status is status

    def test_trend_looks_at_last_three_samples_only(self):
        ranges = [1.6, 1.6, 2.2, 1.6, 1.0]
        reports = [_report(i, r) for i, r in enumerate(ranges)]
        assert track_approach(reports, ZONE).status is ApproachStatus.APPROACHING

    def test_gap_scans_are_skipped_not_fatal(self):
        reports = [
            _report(0, 2.2),
            _report(1),
            _report(2, 1.6),
            _report(3, 1.0),
            _report(4, 0.4),
        ]
        track = track_approach(reports, ZONE)
        assert track.status is ApproachStatus.APPROACHING
        assert track.ranges_m == (2.2, 1.6, 1.0, 0.4)

    def test_out_of_order_reports_raise(self):
        with pytest.raises(ValueError, match="ordered"):
            track_approach([_report(1, 1.6), _report(0, 1.6)], ZONE)

    def test_builtin_style_walkthrough(self):
        base = _baseline()
        reports = []
        for i, r in enumerate([2.2, 1.6, 1.0, 0.4]):
            scan = _profile((Scatterer("sheet", r, SHEET_METAL),), seed=i)
            reports.append(detect_occupancy(base, scan, ZONE, scan_index=i))
        track = track_approach(reports, ZONE)
        assert all(r.occupied for r in reports)
        assert track.status is ApproachStatus.APPROACHING

    def test_noisy_approach_is_still_reported(self):
        # Soundness under noise: a target stepping several bins per scan
        # must read Approaching in >= 95 of 100 noise realizations when the
        # weakest scan sits at 20 dB SNR.
        positions = (2.2, 1.6, 1.0, 0.4)
        weakest = (
            SHEET_METAL.reflectivity
            * PLASTERBOARD.transmissivity**2
            / max(positions) ** 2
        )
        sigma = (weakest / 2.0) * math.sqrt(DEFAULT_CHIRP.n_samples / 1.5) / 10.0
        base = _baseline()
        hits = 0
        for trial in range(100):
            reports = []
            for i, r in enumerate(positions):
                scene = Scene(
                    scatterers=(Scatterer("sheet", r, SHEET_METAL),),
                    walls=WALLS,
                    noise_amplitude=sigma,
                    rng_seed=1000 + 10 * trial + i,
                    phase_seed=3,
                )
                scan = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
                reports.append(detect_occupancy(base, scan, ZONE, scan_index=i))
            if track_approach(reports, ZONE).status is ApproachStatus.APPROACHING:
                hits += 1
        assert hits >= 95
