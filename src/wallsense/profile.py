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
    where a flanking minimum is the lowest value between the peak and the
    next maximum (or the edge) on each side.
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


def _plateau_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of local maxima; plateaus resolve to their lowest index.

    A run of equal values counts as one maximum only when both neighbouring
    runs are strictly lower, so edges never qualify.
    """
    if len(values) < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))
    runs = values[starts]
    inner = runs[1:-1]
    return starts[1:-1][(inner > runs[:-2]) & (inner > runs[2:])]


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
    values = np.asarray(values)
    maxima = _plateau_maxima(values)
    if not maxima.size:
        return []
    # Between adjacent maxima the series only falls, then rises, so the
    # flanking minimum on each side is the lowest value of that stretch.
    flanks = np.minimum.reduceat(values, np.concatenate(([0], maxima)))
    heights = values[maxima]
    proms = heights - np.maximum(flanks[:-1], flanks[1:])
    rows = zip(ranges_m[maxima].tolist(), heights.tolist(), proms.tolist(), maxima.tolist())
    return [Peak(r, h, p, i + bin_offset) for r, h, p, i in rows
            if h >= min_rsa and p >= min_prominence]


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
