"""Slow, independent reference implementations that tests compare against."""

import numpy as np

from wallsense import BeatSignal, RangeProfile, bin_spacing_m


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
    ranges = np.arange(n // 2) * bin_spacing_m(beat.chirp)
    return RangeProfile(ranges, mags * (2.0 / n), beat.chirp)
