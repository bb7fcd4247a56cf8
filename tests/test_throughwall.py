import dataclasses
import math
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallsense import (
    DEFAULT_CHIRP,
    HUMAN_BODY,
    PLASTERBOARD,
    SHEET_METAL,
    ApproachStatus,
    Baseline,
    MonitorZone,
    OccupancyReport,
    Peak,
    RangeProfile,
    Scatterer,
    Scene,
    Wall,
    capture_baseline,
    detect_occupancy,
    range_profile,
    builtin_scenario,
    run_scenario,
    synthesize_beat,
    track_approach,
)

from oracles import batch_track_approach

WALLS = (Wall("near", 0.10, PLASTERBOARD), Wall("far", 2.60, PLASTERBOARD))
ZONE = MonitorZone(0.10, 2.60)
SPACING = 0.0749481145


def _profile(scatterers=(), seed=0):
    scene = Scene(scatterers=scatterers, walls=WALLS, rng_seed=seed, phase_seed=3)
    return range_profile(synthesize_beat(scene, DEFAULT_CHIRP))


def _baseline():
    return capture_baseline([_profile()], 2.60)


def _spike_profile(*bins):
    rsa = np.zeros(DEFAULT_CHIRP.n_samples // 2)
    rsa[list(bins)] = 1.0
    return RangeProfile(rsa, DEFAULT_CHIRP)


# An empty baseline: every scan bin is its own excess.
FLAT = Baseline(_spike_profile(), Peak(1.0, 1.0, 1.0, 13))
RANGES = FLAT.profile.ranges_m


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

    def test_an_empty_guarded_interval_raises(self):
        # Bins 10 and 12 shaved by one bin each meet exactly at bin 11.
        zone = MonitorZone(float(RANGES[10]), float(RANGES[12]), guard_bins=1)
        lo, hi = zone.monitored_interval(SPACING)
        assert lo == hi
        with pytest.raises(ValueError, match="^guard bins consume the whole zone"):
            detect_occupancy(FLAT, _spike_profile(11), zone)

    @pytest.mark.parametrize(
        "spike, occupied", [(21, False), (22, True), (38, True), (39, False)]
    )
    def test_bins_on_the_interval_edges_lie_outside_it(self, spike, occupied):
        # The interval is exactly (bin 20, bin 40), so the series runs from
        # bin 21 to bin 39 and a spike on either end bin is no peak.
        zone = MonitorZone(float(RANGES[20]), float(RANGES[40]), guard_bins=0)
        assert zone.monitored_interval(SPACING) == (RANGES[20], RANGES[40])
        assert detect_occupancy(FLAT, _spike_profile(spike), zone).occupied is occupied

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


def _outcome(fn, reports):
    """fn's result on reports, or the message of the ValueError it raised."""
    try:
        return fn(reports, ZONE)
    except ValueError as exc:
        return f"ValueError: {exc}"


# (occupied, range_m, scan_index step, bin spacing) of one generated report.
_SPEC = st.tuples(
    st.booleans(), st.floats(0.1, 8.0), st.integers(0, 2), st.sampled_from([SPACING, 0.25])
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _SPEC),
        st.tuples(st.just("copy"), st.integers(0, 40)),
        st.tuples(st.just("swap"), st.integers(0, 40), _SPEC),
        st.tuples(st.just("truncate"), st.integers(0, 40)),
        st.tuples(st.just("switch")),
        st.tuples(st.just("tuple")),
        st.tuples(st.just("disorder"), _SPEC),
        st.tuples(st.just("replay")),
    ),
    max_size=40,
)


def _spec_report(spec, after):
    occupied, range_m, step, spacing = spec
    index = (after.scan_index if after is not None else 0) + step
    return _report(index, range_m if occupied else None, spacing)


class TestTrackApproachMemo:
    """track_approach remembers its last call; the batch oracle remembers nothing.

    The memo is never reset here: examples run one after another through
    the one process-wide track_approach, as a long-lived caller would.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_OPS)
    @example([("truncate", 0)])  # the empty list
    @example([("append", (True, 1.6, 0, SPACING))])  # one report
    @example([("replay",), ("append", (True, 0.4, 1, 0.25))])  # right after a replay
    def test_every_call_matches_the_batch_oracle(self, ops):
        lists, cur = [[], []], 0
        for op, *args in ops:
            reports = lists[cur]
            if op == "append":
                reports.append(_spec_report(args[0], reports[-1] if reports else None))
            elif op == "copy" and reports:
                k = args[0] % len(reports)
                reports[k] = dataclasses.replace(reports[k])  # equal, not identical
            elif op == "swap" and reports:
                k = args[0] % len(reports)
                reports[k] = _spec_report(args[1], reports[k - 1] if k else None)
            elif op == "truncate":
                del reports[args[0]:]
            elif op == "switch":
                cur = 1 - cur
                reports = lists[cur]
            elif op == "tuple":
                reports = tuple(reports)
            elif op == "disorder" and reports:
                late = _spec_report(args[0], reports[-1])
                reports.append(dataclasses.replace(late, scan_index=reports[-1].scan_index - 1))
                message = "ValueError: reports must be ordered by scan_index"
                assert _outcome(track_approach, reports) == message
                assert _outcome(batch_track_approach, reports) == message
                reports.pop()
            elif op == "replay":
                result = run_scenario(builtin_scenario("copper_traverse"))
                lists[cur] = reports = [step.occupancy for step in result.steps]
                assert result.steps[-1].approach is batch_track_approach(reports, ZONE).status
            assert _outcome(track_approach, reports) == _outcome(batch_track_approach, reports)

    def test_a_grown_list_reads_only_its_new_reports(self):
        reports = [_report(i, 2.0 - 0.1 * i) for i in range(10)]
        track_approach(reports, ZONE)
        reports.append(_report(10, 0.9))
        with mock.patch.object(
            OccupancyReport, "strongest", autospec=True, side_effect=OccupancyReport.strongest
        ) as strongest:
            track = track_approach(reports, ZONE)
        assert strongest.call_count == 1
        assert track == batch_track_approach(reports, ZONE)

    def test_a_raising_call_leaves_the_memo_as_it_was(self):
        reports = [_report(i, 2.0 - 0.2 * i) for i in range(5)]
        track_approach(reports, ZONE)
        with pytest.raises(ValueError, match="^reports must be ordered by scan_index$"):
            track_approach(reports + [_report(3, 1.0)], ZONE)
        reports.append(_report(5, 1.0))
        with mock.patch.object(
            OccupancyReport, "strongest", autospec=True, side_effect=OccupancyReport.strongest
        ) as strongest:
            track = track_approach(reports, ZONE)
        assert strongest.call_count == 1
        assert track == batch_track_approach(reports, ZONE)

    def test_threads_growing_their_own_lists_get_the_oracle_results(self):
        # More threads than cores, switching often, so each thread's calls
        # interleave with the others' reads and rebindings of the memo.
        histories = [
            [_report(i, 0.5 + 0.1 * ((i * (n + 3)) % 17) if i % 3 else None) for i in range(60)]
            for n in range(6)
        ]
        expected = [
            [batch_track_approach(h[: k + 1], ZONE) for k in range(len(h))] for h in histories
        ]
        mismatches = []

        def work(n):
            reports = []
            for k, report in enumerate(histories[n]):
                reports.append(report)
                if track_approach(reports, ZONE) != expected[n][k]:
                    mismatches.append((n, k))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(len(histories))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert mismatches == []
        finally:
            sys.setswitchinterval(interval)
