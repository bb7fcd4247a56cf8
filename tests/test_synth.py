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
    SPEED_OF_LIGHT_M_S,
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


class TestRangeResolution:
    def test_two_gigahertz(self):
        assert range_resolution(DEFAULT_CHIRP) == pytest.approx(0.0749481145, rel=1e-12)

    def test_one_gigahertz(self):
        chirp = ChirpConfig(24e9, 1e9, 1e-3, 1e6)
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

    def test_invalid_scene_raises(self):
        scene = Scene(scatterers=(Scatterer("bad", 9.0, Material("m", 0.5, 0.0)),))
        with pytest.raises(ValueError, match="out of bounds"):
            synthesize_beat(scene, DEFAULT_CHIRP)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError, match="^chirp yields 8 samples; need at least 16$"):
            synthesize_beat(Scene(max_range_m=0.5), ChirpConfig(24e9, 2e9, 8e-6, 1e6))

    @pytest.mark.parametrize(
        "sweep_time_s, sample_rate_hz",
        [
            (1e200, 1e200),  # the product overflows to inf
            (1e300, 1e6),  # finite, but too large to round into an array size
            (2 * MAX_SAMPLES / 1e6, 1e6),
        ],
    )
    def test_sample_count_is_bounded_before_rounding(self, sweep_time_s, sample_rate_hz):
        chirp = ChirpConfig(24e9, 2e9, sweep_time_s, sample_rate_hz)
        with pytest.raises(ValueError, match=r"^chirp\.sweep_time_s \* chirp\.sample_rate_hz = .* samples; at most"):
            synthesize_beat(Scene(max_range_m=0.5), chirp)

    def test_samples_are_read_only(self):
        beat = synthesize_beat(_scene(2.0), DEFAULT_CHIRP)
        with pytest.raises(ValueError):
            beat.samples[0] = 1.0


# Both give every range the same beat frequency as DEFAULT_CHIRP, so their
# terms differ from its terms only in the sample rate or only in n.
OTHER_RATE_CHIRP = ChirpConfig(77e9, 1e9, 5e-4, 2e6)
OTHER_LENGTH_CHIRP = ChirpConfig(24e9, 1e9, 5e-4, 1e6)

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


class TestTermCache:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_scenes())
    def test_cold_and_cached_synthesis_match_the_loop_bit_for_bit(self, scene):
        with mock.patch.object(synth, "_TERMS", synth._TermCache(synth._TERM_CACHE_BYTES)):
            for chirp in (DEFAULT_CHIRP, OTHER_RATE_CHIRP, OTHER_LENGTH_CHIRP) * 2:
                assert _matches_oracle(scene, chirp)

    def test_cache_stays_within_its_byte_cap(self):
        class Watched(synth._TermCache):
            peak = 0

            def put(self, key, term):
                term = super().put(key, term)
                self.peak = max(self.peak, self.nbytes)
                return term

        cache = Watched(synth._TERM_CACHE_BYTES)
        # 200 terms of 1000 float64 samples need 1.6 MB; the cap holds 131.
        scene = Scene(
            scatterers=tuple(
                Scatterer(f"s{i}", 0.5 + 0.035 * i, Material("m", 0.5, 0.0)) for i in range(200)
            )
        )
        with mock.patch.object(synth, "_TERMS", cache):
            for _ in range(2):
                assert _matches_oracle(scene, DEFAULT_CHIRP)
                assert 0 < cache.peak <= synth._TERM_CACHE_BYTES
                assert cache.nbytes == sum(t.nbytes for t in cache.terms.values())
                assert len(cache.terms) == synth._TERM_CACHE_BYTES // (8 * DEFAULT_CHIRP.n_samples)
                assert not any(t.flags.writeable for t in cache.terms.values())

    def test_threads_sharing_the_cache_keep_its_byte_count(self):
        # More threads than cores, switching often, over a cache that holds
        # 40 of the 60 distinct terms, so lookups and evictions interleave.
        cache = synth._TermCache(40 * 8 * DEFAULT_CHIRP.n_samples)
        scenes = [
            Scene(
                scatterers=tuple(
                    Scatterer(f"s{i}", 0.5 + 0.2 * i, Material("m", 0.5, 0.0)) for i in range(20)
                ),
                phase_seed=seed,
            )
            for seed in range(3)
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
            with mock.patch.object(synth, "_TERMS", cache):
                threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert mismatches == []
        assert cache.nbytes == sum(t.nbytes for t in cache.terms.values()) <= cache.max_bytes
