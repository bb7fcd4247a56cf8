import dataclasses
import math
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallsense import (
    DEFAULT_CHIRP,
    HUMAN_BODY,
    SPEED_OF_LIGHT_M_S,
    BeatSignal,
    ChirpConfig,
    Material,
    Scatterer,
    Scene,
    Wall,
    beat_frequency,
    range_resolution,
    reflector_phase,
    synthesize_beat,
)
from wallsense import synth
from wallsense.synth import MAX_SAMPLES

from oracles import loop_synthesize_beat, naive_spectrum

# f = 2*B*R / (c*T) evaluated by hand for B=2 GHz, T=1 ms, R=3 m.
BEAT_3M_DEFAULT_HZ = 40027.69142377825


def _scene(*ranges, reflectivity=0.5, noise=0.0, seed=0):
    scatterers = tuple(
        Scatterer(f"s{i}", r, Material("m", reflectivity, 0.0))
        for i, r in enumerate(ranges)
    )
    return Scene(scatterers=scatterers, noise_amplitude=noise, rng_seed=seed)


class TestChirpConfig:
    def test_default_sample_count(self):
        assert DEFAULT_CHIRP.n_samples == 1000

    def test_fields_are_the_sweep_alone(self):
        names = tuple(f.name for f in dataclasses.fields(ChirpConfig))
        assert names == ("bandwidth_hz", "sweep_time_s", "sample_rate_hz")

    def test_max_unambiguous_range(self):
        # c * fs * T / (4 * B)
        expected = SPEED_OF_LIGHT_M_S * 1e6 * 1e-3 / (4 * 2e9)
        assert DEFAULT_CHIRP.max_unambiguous_range_m == pytest.approx(expected, rel=1e-12)
        assert DEFAULT_CHIRP.max_unambiguous_range_m > 8.0

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ChirpConfig)])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_fields_must_be_positive(self, field, value):
        message = f"chirp.{field}: expected a positive number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChirpConfig(**{field: value})


class TestBeatFrequency:
    def test_three_meters_default_chirp(self):
        assert beat_frequency(3.0, DEFAULT_CHIRP) == pytest.approx(
            BEAT_3M_DEFAULT_HZ, rel=1e-12
        )

    def test_proportional_to_range(self):
        assert beat_frequency(6.0, DEFAULT_CHIRP) == pytest.approx(
            2 * beat_frequency(3.0, DEFAULT_CHIRP), rel=1e-12
        )

    def test_zero_range(self):
        assert beat_frequency(0.0, DEFAULT_CHIRP) == 0.0

    def test_negative_range_raises(self):
        with pytest.raises(ValueError, match="range_m"):
            beat_frequency(-1.0, DEFAULT_CHIRP)

    def test_nan_range_raises(self):
        with pytest.raises(ValueError, match="^range_m must be >= 0, got nan$"):
            beat_frequency(math.nan, DEFAULT_CHIRP)


class TestRangeResolution:
    def test_two_gigahertz(self):
        assert range_resolution(DEFAULT_CHIRP) == pytest.approx(0.0749481145, rel=1e-12)

    def test_one_gigahertz(self):
        chirp = ChirpConfig(1e9, 1e-3, 1e6)
        assert range_resolution(chirp) == pytest.approx(0.149896229, rel=1e-12)


class TestReflectorPhase:
    def test_range_and_determinism(self):
        p1 = reflector_phase(42, "wall")
        assert 0.0 <= p1 < 2 * np.pi
        assert reflector_phase(42, "wall") == p1

    def test_distinct_ids_get_distinct_phases(self):
        assert reflector_phase(0, "a") != reflector_phase(0, "b")

    def test_seed_changes_phase(self):
        assert reflector_phase(0, "a") != reflector_phase(1, "a")


class TestSynthesizeBeat:
    def test_empty_noiseless_scene_is_silent(self):
        beat = synthesize_beat(Scene(), DEFAULT_CHIRP)
        assert np.all(beat.samples == 0.0)
        assert len(beat.samples) == 1000

    def test_identical_inputs_bit_identical_output(self):
        scene = _scene(1.5, 3.2, noise=0.3, seed=99)
        a = synthesize_beat(scene, DEFAULT_CHIRP)
        b = synthesize_beat(scene, DEFAULT_CHIRP)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_seed_changes_samples(self):
        a = synthesize_beat(_scene(1.5, noise=0.3, seed=1), DEFAULT_CHIRP)
        b = synthesize_beat(_scene(1.5, noise=0.3, seed=2), DEFAULT_CHIRP)
        assert not np.array_equal(a.samples, b.samples)

    def test_superposition_of_noiseless_scenes(self):
        # Phases hang off (seed, reflector id), so sub-scenes reuse them.
        s1 = Scatterer("s1", 1.5, Material("m", 0.5, 0.0))
        s2 = Scatterer("s2", 3.2, Material("m", 0.3, 0.0))
        both = synthesize_beat(Scene(scatterers=(s1, s2)), DEFAULT_CHIRP)
        only1 = synthesize_beat(Scene(scatterers=(s1,)), DEFAULT_CHIRP)
        only2 = synthesize_beat(Scene(scatterers=(s2,)), DEFAULT_CHIRP)
        assert np.array_equal(both.samples, only1.samples + only2.samples)

    def test_single_reflector_lands_on_its_beat_bin(self):
        beat = synthesize_beat(_scene(3.0), DEFAULT_CHIRP)
        profile = naive_spectrum(beat)
        expected_bin = round(BEAT_3M_DEFAULT_HZ * 1000 / 1e6)
        assert int(np.argmax(profile.rsa)) == expected_bin

    def test_scene_beyond_unambiguous_range_raises(self):
        scene = Scene(scatterers=(), max_range_m=50.0)
        with pytest.raises(ValueError, match="unambiguous"):
            synthesize_beat(scene, DEFAULT_CHIRP)

    def test_huge_bandwidth_is_named_in_the_unambiguous_range_error(self):
        message = (
            "scene.max_range_m 8.0 exceeds the maximum unambiguous range 7.49481e-290 m "
            "of chirp.bandwidth_hz 1e+300 over 1000 samples"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthesize_beat(Scene(), ChirpConfig(bandwidth_hz=1e300))

    def test_tiny_bandwidth_whose_resolution_exceeds_the_scene_raises(self):
        message = (
            "chirp.bandwidth_hz 1e-200 gives a range resolution of 1.49896e+208 m, "
            "not below scene.max_range_m 8.0"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthesize_beat(Scene(), ChirpConfig(bandwidth_hz=1e-200))

    def test_invalid_scene_raises(self):
        # A scene checks itself when built, so an invalid one never reaches synthesis.
        with pytest.raises(ValueError, match="out of bounds"):
            Scene(scatterers=(Scatterer("bad", 9.0, Material("m", 0.5, 0.0)),))

    def test_negative_rng_seed_raises_naming_the_field(self):
        with pytest.raises(ValueError, match=r"^scene\.rng_seed must be >= 0, got -1$"):
            synthesize_beat(_scene(2.0, noise=1e-3, seed=-1), DEFAULT_CHIRP)

    def test_too_few_samples_raises(self):
        message = "chirp.sweep_time_s * chirp.sample_rate_hz = 8 samples; need at least 16"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthesize_beat(Scene(max_range_m=0.5), ChirpConfig(2e9, 8e-6, 1e6))

    @pytest.mark.parametrize(
        "sweep_time_s, sample_rate_hz",
        [
            (1e200, 1e200),  # the product overflows to inf
            (1e300, 1e6),  # finite, but too large to round into an array size
            (2 * MAX_SAMPLES / 1e6, 1e6),
        ],
    )
    def test_sample_count_is_bounded_before_rounding(self, sweep_time_s, sample_rate_hz):
        chirp = ChirpConfig(2e9, sweep_time_s, sample_rate_hz)
        with pytest.raises(ValueError, match=r"^chirp\.sweep_time_s \* chirp\.sample_rate_hz = .* samples; at most"):
            synthesize_beat(Scene(max_range_m=0.5), chirp)

    def test_samples_are_read_only(self):
        beat = synthesize_beat(_scene(2.0), DEFAULT_CHIRP)
        with pytest.raises(ValueError):
            beat.samples[0] = 1.0


class TestBeatSignal:
    def test_sample_count_must_match_the_chirp(self):
        message = "^sample count 999 does not match chirp n_samples 1000$"
        with pytest.raises(ValueError, match=message):
            BeatSignal(np.zeros(999), DEFAULT_CHIRP)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_are_rejected(self, value):
        samples = np.zeros(DEFAULT_CHIRP.n_samples)
        samples[500] = value
        with pytest.raises(ValueError, match="^beat signal contains non-finite samples$"):
            BeatSignal(samples, DEFAULT_CHIRP)


# Both give every range the same beat frequency as DEFAULT_CHIRP, so their
# terms differ from its terms only in the sample rate or only in n.
OTHER_RATE_CHIRP = ChirpConfig(1e9, 5e-4, 2e6)
OTHER_LENGTH_CHIRP = ChirpConfig(1e9, 5e-4, 1e6)

# A few ranges drawn from a small pool, so walls and scatterers share them.
RANGES = (0.61, 1.37, 2.23, 3.9, 5.17, 7.9)
COEFFICIENTS = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def _scenes(draw):
    wall_ranges = sorted(draw(st.sets(st.sampled_from(RANGES), max_size=3)))
    walls = tuple(
        Wall(f"w{i}", r, Material("m", draw(COEFFICIENTS), draw(COEFFICIENTS)))
        for i, r in enumerate(wall_ranges)
    )
    scatterers = tuple(
        Scatterer(f"s{i}", draw(st.sampled_from(RANGES)), Material("m", draw(COEFFICIENTS), 0.0))
        for i in range(draw(st.integers(0, 6)))
    )
    return Scene(
        scatterers=scatterers,
        walls=walls,
        noise_amplitude=draw(st.sampled_from((0.0, 1e-3))),
        rng_seed=draw(st.integers(0, 3)),
        phase_seed=draw(st.sampled_from((None, 5))),
    )


def _matches_oracle(scene, chirp):
    return synthesize_beat(scene, chirp).samples.tobytes() == loop_synthesize_beat(scene, chirp).tobytes()


CHIRPS = (DEFAULT_CHIRP, OTHER_RATE_CHIRP, OTHER_LENGTH_CHIRP)
EMPTY_MEMO = (None, (), ())


def _mutated(scene, step, op, i, range_m, coefficient):
    scatterers, walls = list(scene.scatterers), list(scene.walls)
    if op == "add":
        new = Scatterer(f"a{step}", range_m, Material("m", coefficient, 0.0))
        scatterers.insert(i % (len(scatterers) + 1), new)
    elif op == "move" and scatterers:
        old = scatterers[i % len(scatterers)]
        scatterers[i % len(scatterers)] = dataclasses.replace(old, range_m=range_m)
    elif op == "remove" and scatterers:
        del scatterers[i % len(scatterers)]
    elif op == "wall":
        # Toggle a wall at range_m, keeping the walls sorted and distinct.
        kept = [w for w in walls if w.range_m != range_m]
        if len(kept) == len(walls):
            kept.append(Wall(f"v{step}", range_m, Material("m", coefficient, coefficient)))
        walls = sorted(kept, key=lambda w: w.range_m)
    return dataclasses.replace(scene, scatterers=tuple(scatterers), walls=tuple(walls))


def _assert_memo_holds_prefix_sums():
    # Every stored sum is the loop's sum over its reflector prefix.
    (_, seed, chirp), refs, sums = synth._last
    assert 0 < sum(s.nbytes for s in sums) <= synth._MEMO_BYTES
    for i, stored in enumerate(sums):
        assert not stored.flags.writeable
        prefix = refs[: i + 1]
        scene = Scene(
            walls=tuple(r for r in prefix if isinstance(r, Wall)),
            scatterers=tuple(r for r in prefix if isinstance(r, Scatterer)),
            phase_seed=seed,
        )
        assert stored.tobytes() == loop_synthesize_beat(scene, chirp).tobytes()


STEPS = st.tuples(
    st.sampled_from(("add", "move", "remove", "wall", "same")),
    st.integers(0, 7),
    st.sampled_from(RANGES),
    COEFFICIENTS,
    st.sampled_from(CHIRPS),
    st.sampled_from((None, 5)),
    st.sampled_from((0.0, 1e-3)),
)


class TestPrefixMemo:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_scenes(), st.lists(STEPS, min_size=1, max_size=12))
    def test_mutated_scan_sequences_match_the_loop_bit_for_bit(self, scene, steps):
        with mock.patch.object(synth, "_last", EMPTY_MEMO):
            for step, (op, i, range_m, coefficient, chirp, phase_seed, noise) in enumerate(steps):
                scene = dataclasses.replace(
                    _mutated(scene, step, op, i, range_m, coefficient),
                    phase_seed=phase_seed,
                    noise_amplitude=noise,
                    rng_seed=step,
                )
                assert _matches_oracle(scene, chirp)
                if scene.reflectors():
                    _assert_memo_holds_prefix_sums()

    def test_memo_stays_within_its_byte_cap(self):
        # 200 sums of 1000 float64 samples need 1.6 MB; the cap holds 131.
        scene = Scene(
            scatterers=tuple(
                Scatterer(f"s{i}", 0.5 + 0.035 * i, Material("m", 0.5, 0.0)) for i in range(200)
            )
        )
        moved = dataclasses.replace(
            scene, scatterers=scene.scatterers[:150] + (Scatterer("p", 7.9, HUMAN_BODY),)
        )
        with mock.patch.object(synth, "_last", EMPTY_MEMO):
            for s in (scene, scene, moved, scene):
                assert _matches_oracle(s, DEFAULT_CHIRP)
                assert len(synth._last[2]) == synth._MEMO_BYTES // (8 * DEFAULT_CHIRP.n_samples)
                _assert_memo_holds_prefix_sums()

    def test_equal_seeds_of_different_types_keep_their_own_phases(self):
        # True == 1, but reflector_phase formats them as "True" and "1".
        with mock.patch.object(synth, "_last", EMPTY_MEMO):
            for phase_seed in (1, True, 1):
                scene = dataclasses.replace(_scene(2.0, 3.0), phase_seed=phase_seed)
                assert _matches_oracle(scene, DEFAULT_CHIRP)

    def test_threads_sharing_the_memo_get_the_loop_bits(self):
        # More threads than cores, switching often, over scans that share
        # prefixes of different lengths, so memo reads and rebindings interleave.
        base = tuple(Scatterer(f"s{i}", 0.5 + 0.2 * i, Material("m", 0.5, 0.0)) for i in range(20))
        scenes = [
            Scene(
                scatterers=base[:cut] + (Scatterer("p", 5.0 + 0.1 * cut, HUMAN_BODY),),
                phase_seed=seed,
            )
            for cut in (20, 12, 5)
            for seed in (0, 1)
        ]
        expected = [loop_synthesize_beat(scene, DEFAULT_CHIRP).tobytes() for scene in scenes]
        mismatches = []

        def work(offset):
            for k in range(30):
                i = (offset + k) % len(scenes)
                if synthesize_beat(scenes[i], DEFAULT_CHIRP).samples.tobytes() != expected[i]:
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(synth, "_last", EMPTY_MEMO):
                threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
                assert mismatches == []
                _assert_memo_holds_prefix_sums()
        finally:
            sys.setswitchinterval(interval)
