"""Slow, independent reference implementations that tests compare against."""

import numpy as np

from wallsense import (
    REFERENCE_RANGE_M,
    BeatSignal,
    ChirpConfig,
    RangeProfile,
    Scene,
    beat_frequency,
    reflector_phase,
)


def naive_spectrum(beat: BeatSignal) -> RangeProfile:
    """range_profile with the RECT window, as a direct O(n^2) Fourier sum.

    Evaluates the sum bin by bin instead of an FFT; do not use it for
    anything large.
    """
    x = beat.samples
    n = len(x)
    idx = np.arange(n)
    mags = np.empty(n // 2)
    for k in range(n // 2):
        mags[k] = np.abs(np.dot(x, np.exp(-2j * np.pi * k * idx / n)))
    return RangeProfile(mags * (2.0 / n), beat.chirp)


def loop_synthesize_beat(scene: Scene, chirp: ChirpConfig) -> np.ndarray:
    """synthesize_beat's samples as a plain loop with no memo: per reflector,
    the amplitude product in effective_amplitude's order (written out here,
    so that it is checked too) and a freshly computed cosine.
    """
    n = chirp.n_samples
    t = np.arange(n) / chirp.sample_rate_hz
    out = np.zeros(n)
    phase_seed = scene.effective_phase_seed
    for ref in scene.reflectors():
        amp = ref.material.reflectivity
        for wall in scene.walls:
            if wall.range_m < ref.range_m:
                amp *= wall.material.transmissivity**2
        amp *= (REFERENCE_RANGE_M / ref.range_m) ** 2
        f_b = beat_frequency(ref.range_m, chirp)
        phi = reflector_phase(phase_seed, ref.id)
        out += amp * np.cos(2.0 * np.pi * f_b * t + phi)
    if scene.noise_amplitude > 0:
        rng = np.random.default_rng(scene.rng_seed)
        out += scene.noise_amplitude * rng.standard_normal(n)
    return out
