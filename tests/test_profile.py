import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallsense import (
    DEFAULT_CHIRP,
    HUMAN_BODY,
    LAB_WALL,
    BeatSignal,
    ChirpConfig,
    Material,
    RangeProfile,
    Scatterer,
    Scene,
    Wall,
    Window,
    detect_peaks,
    find_peaks_in_series,
    profile_to_csv,
    range_profile,
    range_resolution,
    synthesize_beat,
)

from oracles import loop_find_peaks_in_series, naive_spectrum

# Runs of one to three equal values, so ties, plateaus (at the edges too)
# and +-0.0 neighbours are common; lengths start at 0.
_VALUE = st.one_of(
    st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SERIES = st.lists(st.tuples(_VALUE, st.integers(1, 3)), max_size=30).map(
    lambda runs: np.array([v for v, k in runs for _ in range(k)], dtype=float)
)
_THRESHOLD = st.sampled_from([0.0, 0.25, 1.0, 2.5, 1e300])


def _bits(peaks):
    """Bin indices plus the exact bytes of each float field."""
    return (
        [p.bin_index for p in peaks],
        *(np.array([getattr(p, f) for p in peaks], dtype=float).tobytes()
          for f in ("range_m", "rsa", "prominence")),
    )


def _beat_from(samples):
    samples = np.asarray(samples, dtype=float)
    chirp = ChirpConfig(2e9, len(samples) * 1e-6, 1e6)
    return BeatSignal(samples, chirp)


class TestRangeProfile:
    def test_silence_in_silence_out(self):
        beat = synthesize_beat(Scene(), DEFAULT_CHIRP)
        for window in (Window.RECT, Window.HANN):
            assert np.all(range_profile(beat, window).rsa == 0.0)

    def test_output_length_and_bin_mapping(self):
        beat = synthesize_beat(Scene(), DEFAULT_CHIRP)
        prof = range_profile(beat)
        assert len(prof) == 500
        assert prof.ranges_m[0] == 0.0
        # N == fs*T here, so bins are spaced by the range resolution.
        assert prof.bin_spacing_m == pytest.approx(range_resolution(DEFAULT_CHIRP), rel=1e-12)
        assert np.allclose(np.diff(prof.ranges_m), prof.bin_spacing_m)

    def test_profiles_of_one_chirp_share_one_read_only_range_axis(self):
        a = range_profile(synthesize_beat(Scene(), DEFAULT_CHIRP))
        b = range_profile(synthesize_beat(Scene(rng_seed=1), DEFAULT_CHIRP))
        assert a.ranges_m is b.ranges_m
        assert not a.ranges_m.flags.writeable
        assert not a.rsa.flags.writeable

    def test_unknown_window_is_rejected(self):
        with pytest.raises(ValueError, match="^unknown window 'blackman'$"):
            range_profile(synthesize_beat(Scene(), DEFAULT_CHIRP), "blackman")

    def test_rsa_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match=r"^rsa has 499 bins, chirp expects 500$"):
            RangeProfile(np.zeros(499), DEFAULT_CHIRP)

    def test_on_bin_tone_reads_its_amplitude_under_rect(self):
        # rsa is scaled by 2/N, so a unit tone on bin 25 shows rsa 1.0.
        n = 1000
        tone = 0.7 * np.cos(2 * np.pi * 25 * np.arange(n) / n)
        prof = range_profile(_beat_from(tone), Window.RECT)
        assert prof.rsa[25] == pytest.approx(0.7, rel=1e-9)

    def test_linear_in_input_scale(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(256)
        a = range_profile(_beat_from(samples), Window.HANN)
        b = range_profile(_beat_from(2.0 * samples), Window.HANN)
        assert np.allclose(b.rsa, 2.0 * a.rsa, rtol=1e-12, atol=0.0)

    def test_matches_naive_spectrum_on_random_signals(self):
        rng = np.random.default_rng(11)
        for n in (16, 64, 129, 256):
            beat = _beat_from(rng.standard_normal(n))
            fast = range_profile(beat, Window.RECT)
            slow = naive_spectrum(beat)
            scale = slow.rsa.max()
            assert np.max(np.abs(fast.rsa - slow.rsa)) <= 1e-9 * scale
            assert np.array_equal(fast.ranges_m, slow.ranges_m)


class TestFindPeaks:
    def test_textbook_prominences(self):
        # By hand: peak 5 flanks at 0 (edge) and 1, peak 3 flanks at 1 and 0.
        values = np.array([0.0, 5.0, 1.0, 3.0, 0.0])
        ranges = np.arange(5, dtype=float)
        peaks = find_peaks_in_series(ranges, values)
        assert [(p.bin_index, p.rsa, p.prominence) for p in peaks] == [
            (1, 5.0, 4.0),
            (3, 3.0, 2.0),
        ]

    def test_plateau_resolves_to_lowest_bin(self):
        values = np.array([0.0, 1.0, 3.0, 3.0, 3.0, 1.0, 0.0])
        peaks = find_peaks_in_series(np.arange(7, dtype=float), values)
        assert [(p.bin_index, p.prominence) for p in peaks] == [(2, 3.0)]

    def test_plateau_touching_an_edge_is_not_a_peak(self):
        values = np.array([3.0, 3.0, 1.0, 0.0])
        assert find_peaks_in_series(np.arange(4, dtype=float), values) == []

    def test_monotone_series_has_no_peaks(self):
        values = np.linspace(0.0, 1.0, 32)
        assert find_peaks_in_series(np.arange(32, dtype=float), values) == []

    def test_edges_are_never_peaks(self):
        values = np.array([5.0, 1.0, 0.5, 4.0])
        assert find_peaks_in_series(np.arange(4, dtype=float), values) == []

    def test_thresholds_filter(self):
        values = np.array([0.0, 5.0, 1.0, 3.0, 0.0])
        ranges = np.arange(5, dtype=float)
        assert [p.bin_index for p in find_peaks_in_series(ranges, values, min_rsa=4.0)] == [1]
        assert [
            p.bin_index for p in find_peaks_in_series(ranges, values, min_prominence=3.0)
        ] == [1]

    def test_lower_thresholds_return_a_superset(self):
        rng = np.random.default_rng(3)
        values = np.abs(rng.standard_normal(200))
        ranges = np.arange(200, dtype=float)
        loose = {p.bin_index for p in find_peaks_in_series(ranges, values, 0.1, 0.1)}
        tight = {p.bin_index for p in find_peaks_in_series(ranges, values, 0.4, 0.6)}
        assert tight <= loose

    @pytest.mark.parametrize("values", [[], [2.0], [1.0, 2.0], [2.0, 1.0], [4.0] * 6])
    def test_short_and_flat_series_have_no_peaks(self, values):
        values = np.array(values)
        assert find_peaks_in_series(np.arange(len(values), dtype=float), values) == []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_SERIES, _THRESHOLD, _THRESHOLD, st.sampled_from([0, 7, 250]))
    @example(np.array([2.0, 2.0, 1.0, 3.0, 3.0, 0.0, -0.0, 0.5, 4.0, 4.0]), 0.0, 0.0, 0)
    @example(np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0, 1.0, 0.0]), 1.0, 0.0, 7)
    def test_matches_the_loop_oracle_bit_for_bit(self, values, min_prominence, min_rsa, offset):
        ranges = np.arange(len(values)) * 0.0749481145
        args = (ranges, values, min_prominence, min_rsa, offset)
        fast, slow = find_peaks_in_series(*args), loop_find_peaks_in_series(*args)
        assert _bits(fast) == _bits(slow)
        assert all(type(p.bin_index) is int for p in fast)


class TestDetectPeaks:
    def test_two_reflector_scene(self):
        scene = Scene(
            scatterers=(Scatterer("person", 2.0, HUMAN_BODY),),
            walls=(Wall("back", 6.0, LAB_WALL),),
        )
        prof = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
        peaks = detect_peaks(prof, min_prominence=1e-4, min_rsa=2e-4)
        spacing = prof.bin_spacing_m
        assert len(peaks) == 2
        assert abs(peaks[0].range_m - 2.0) <= spacing
        assert abs(peaks[1].range_m - 6.0) <= spacing
        # ascending by range
        assert peaks[0].range_m < peaks[1].range_m

    def test_negative_thresholds_raise(self):
        prof = range_profile(synthesize_beat(Scene(), DEFAULT_CHIRP))
        with pytest.raises(ValueError, match="thresholds"):
            detect_peaks(prof, min_prominence=-1.0)

    @pytest.mark.parametrize("name", ["min_prominence", "min_rsa"])
    def test_nan_threshold_raises_naming_it(self, name):
        # Every comparison with NaN is false, so it would drop every peak.
        prof = range_profile(synthesize_beat(Scene(), DEFAULT_CHIRP))
        with pytest.raises(ValueError, match=rf"^thresholds must be >= 0, got {name}=nan$"):
            detect_peaks(prof, **{name: math.nan})

    def test_noise_recovery_rate(self):
        # Quick version of the statistical gate: exact reflector set on
        # most seeds at 20 dB worst-reflector SNR.
        wall_amp = 0.05 / 36.0
        sigma = (wall_amp / 2.0) * np.sqrt(1000 / 1.5) / 10.0
        hits = 0
        for seed in range(20):
            scene = Scene(
                scatterers=(Scatterer("person", 2.0, HUMAN_BODY),),
                walls=(Wall("back", 6.0, LAB_WALL),),
                noise_amplitude=sigma,
                rng_seed=seed,
                phase_seed=7,
            )
            prof = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
            peaks = detect_peaks(prof, min_prominence=2e-4, min_rsa=4.2e-4)
            ok = len(peaks) == 2 and (
                abs(peaks[0].range_m - 2.0) <= prof.bin_spacing_m
                and abs(peaks[1].range_m - 6.0) <= prof.bin_spacing_m
            )
            hits += ok
        assert hits >= 19


class TestProfileCsv:
    def test_header_and_digits(self):
        scene = Scene(scatterers=(Scatterer("s", 3.0, Material("m", 1 / 3, 0.0)),))
        prof = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
        text = profile_to_csv(prof)
        lines = text.splitlines()
        assert lines[0] == "range_m,rsa"
        assert len(lines) == 1 + len(prof)
        # nine significant digits on the range column
        assert lines[2].split(",")[0] == "0.0749481145"

    def test_round_trips_exact_bytes(self):
        scene = Scene(scatterers=(Scatterer("s", 3.0, HUMAN_BODY),))
        beat = synthesize_beat(scene, DEFAULT_CHIRP)
        assert profile_to_csv(range_profile(beat)) == profile_to_csv(range_profile(beat))
