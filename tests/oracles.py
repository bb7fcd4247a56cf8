"""Slow, independent reference implementations that tests compare against."""

import numpy as np

from wallsense import (
    REFERENCE_RANGE_M,
    BeatSignal,
    ChirpConfig,
    Peak,
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
    the amplitude product in _amplitude's order (written out here,
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


def _plateau_maxima(values: np.ndarray) -> list[int]:
    """Indices of local maxima; plateaus resolve to their lowest index.

    A run of equal values counts as one maximum only when both neighbours
    of the run are strictly lower, so edges never qualify.
    """
    out: list[int] = []
    n = len(values)
    i = 1
    while i < n - 1:
        if values[i] > values[i - 1]:
            j = i
            while j + 1 < n and values[j + 1] == values[i]:
                j += 1
            if j + 1 < n and values[j + 1] < values[i]:
                out.append(i)
            i = j + 1
        else:
            i += 1
    return out


def _flanking_prominence(values: np.ndarray, idx: int) -> float:
    j = idx
    while j > 0 and values[j - 1] <= values[j]:
        j -= 1
    left_min = values[j]
    j = idx
    n = len(values)
    while j < n - 1 and values[j + 1] <= values[j]:
        j += 1
    right_min = values[j]
    return float(values[idx] - max(left_min, right_min))


def loop_find_peaks_in_series(
    ranges_m: np.ndarray,
    values: np.ndarray,
    min_prominence: float = 0.0,
    min_rsa: float = 0.0,
    bin_offset: int = 0,
) -> list[Peak]:
    """find_peaks_in_series as per-peak index walks: each maximum's run is
    scanned forward, and its prominence walks down each flank until the
    series rises again (or the edge).
    """
    peaks = []
    for idx in _plateau_maxima(np.asarray(values)):
        height = float(values[idx])
        prom = _flanking_prominence(values, idx)
        if height >= min_rsa and prom >= min_prominence:
            peaks.append(Peak(float(ranges_m[idx]), height, prom, idx + bin_offset))
    return peaks
