"""Range profiles and peak extraction.

A range profile maps each spectral bin of the beat signal to a distance
and a return-signal amplitude (rsa). Magnitudes are scaled by 2/N so that
a unit-amplitude on-bin tone under a rectangular window reads rsa = 1.0
regardless of scan length; thresholds then carry across chirp configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .synth import SPEED_OF_LIGHT_M_S, BeatSignal, ChirpConfig


class Window(Enum):
    RECT = "rect"
    HANN = "hann"


@dataclass(frozen=True)
class RangeProfile:
    """Return-signal amplitude per range bin for one scan."""

    rsa: np.ndarray
    chirp: ChirpConfig

    def __post_init__(self) -> None:
        if len(self.rsa) != self.chirp.n_samples // 2:
            raise ValueError(
                f"rsa has {len(self.rsa)} bins, chirp expects {self.chirp.n_samples // 2}"
            )
        self.rsa.flags.writeable = False

    @property
    def ranges_m(self) -> np.ndarray:
        """Range of each bin; one read-only array shared by every profile of a chirp."""
        return _bin_ranges(self.chirp)

    @property
    def bin_spacing_m(self) -> float:
        return bin_spacing_m(self.chirp)

    def __len__(self) -> int:
        return len(self.rsa)


@dataclass(frozen=True)
class Peak:
    """A local maximum of a profile (or of an excess series).

    prominence is the height above the higher of the two flanking minima,
    where a flanking minimum is the lowest value reached walking away from
    the peak before the series rises again (or the series edge).
    """

    range_m: float
    rsa: float
    prominence: float
    bin_index: int


def bin_spacing_m(chirp: ChirpConfig) -> float:
    """Distance between adjacent profile bins.

    Bin k sits at frequency k*fs/N, i.e. range k*fs*c*T / (2*B*N). When
    N == fs*T exactly this equals the range resolution c/(2*B).
    """
    n = chirp.n_samples
    return (
        chirp.sample_rate_hz
        * SPEED_OF_LIGHT_M_S
        * chirp.sweep_time_s
        / (2.0 * chirp.bandwidth_hz * n)
    )


@cache
def _bin_ranges(chirp: ChirpConfig) -> np.ndarray:
    ranges = np.arange(chirp.n_samples // 2) * bin_spacing_m(chirp)
    ranges.flags.writeable = False
    return ranges


def range_profile(beat: BeatSignal, window: Window = Window.HANN) -> RangeProfile:
    """Windowed magnitude spectrum over the positive-frequency half.

    Output has n_samples // 2 bins; bin k maps to range via
    R = f * c * T / (2 * B) with f = k * fs / N.
    """
    x = beat.samples
    n = len(x)
    if window is Window.HANN:
        x = x * np.hanning(n)
    elif window is not Window.RECT:
        raise ValueError(f"unknown window {window!r}")
    spectrum = np.abs(np.fft.rfft(x))[: n // 2] * (2.0 / n)
    return RangeProfile(spectrum, beat.chirp)


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


def find_peaks_in_series(
    ranges_m: np.ndarray,
    values: np.ndarray,
    min_prominence: float = 0.0,
    min_rsa: float = 0.0,
    bin_offset: int = 0,
) -> list[Peak]:
    """Peak-pick an arbitrary value series aligned with range bins.

    Shared by profile peak detection and the through-wall excess test.
    bin_offset shifts reported bin indices when `values` is a slice of a
    larger profile.
    """
    peaks = []
    for idx in _plateau_maxima(np.asarray(values)):
        height = float(values[idx])
        prom = _flanking_prominence(values, idx)
        if height >= min_rsa and prom >= min_prominence:
            peaks.append(Peak(float(ranges_m[idx]), height, prom, idx + bin_offset))
    return peaks


def detect_peaks(
    profile: RangeProfile,
    min_prominence: float = 0.0,
    min_rsa: float = 0.0,
) -> list[Peak]:
    """Local maxima of the profile, ascending by range.

    Maxima must be strictly greater than both neighbours (plateaus count
    once, at their lowest-range bin) and must clear both thresholds.
    """
    for name, value in (("min_prominence", min_prominence), ("min_rsa", min_rsa)):
        if not (value >= 0):
            raise ValueError(f"thresholds must be >= 0, got {name}={value!r}")
    return find_peaks_in_series(profile.ranges_m, profile.rsa, min_prominence, min_rsa)


def profile_to_csv(profile: RangeProfile) -> str:
    """Serialize as `range_m,rsa` rows with 9 significant digits."""
    lines = ["range_m,rsa"]
    for r, a in zip(profile.ranges_m, profile.rsa):
        lines.append(f"{r:.9g},{a:.9g}")
    return "\n".join(lines) + "\n"
