"""Reflection-magnitude classification against an empty-room baseline.

The discriminant is the ratio of a target peak's return amplitude to the
amplitude of a fixed reference feature captured when the room was empty
(rrm). Infrastructure sits near 1, people a little above it, bare metal
far above it. Band edges between those groups are placed at the geometric
mean of neighbouring class extremes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .profile import Peak, RangeProfile, find_peaks_in_series
from .scene import REFERENCE_RANGE_M


class TargetClass(IntEnum):
    INFRASTRUCTURE = 0
    HUMAN = 1
    METALLIC = 2

    def __str__(self) -> str:  # CSV-friendly
        return self.name.title()


@dataclass(frozen=True)
class ClassBands:
    """Upper rrm limits for the first two classes; Metallic is everything above."""

    infrastructure_max: float
    human_max: float

    def __post_init__(self) -> None:
        if not (1.0 <= self.infrastructure_max < self.human_max):
            raise ValueError(
                "bands must satisfy 1 <= infrastructure_max < human_max, got "
                f"({self.infrastructure_max}, {self.human_max})"
            )


# Calibrated from the shipped nine-row reference set (see data/).
DEFAULT_BANDS = ClassBands(
    infrastructure_max=math.sqrt(1.0 * 1.32),
    human_max=math.sqrt(1.88 * 7.51),
)


# A baseline's reference feature lies within HINT_BINS of the hint range and
# reaches MIN_RSA_FRACTION of the profile maximum.
HINT_BINS = 3
MIN_RSA_FRACTION = 1e-4


@dataclass(frozen=True)
class Baseline:
    """Averaged empty-room profile plus its anchor peak."""

    profile: RangeProfile
    reference_feature: Peak
    label: str = "baseline"


def capture_baseline(
    profiles: Sequence[RangeProfile],
    feature_range_hint_m: float | None,
    label: str = "baseline",
) -> Baseline:
    """Average one or more empty-room scans and lock onto a reference peak.

    The reference feature is the strongest peak within HINT_BINS bins of
    the hint range, or the strongest peak anywhere when the hint is None.
    Peaks below MIN_RSA_FRACTION of the profile maximum are ignored so
    window sidelobes and float dust cannot anchor the baseline.

    Raises ValueError when the profiles disagree on chirp configuration or
    no peak exists near the hint.
    """
    if not profiles:
        raise ValueError("need at least one profile to capture a baseline")
    chirp = profiles[0].chirp
    for p in profiles[1:]:
        if p.chirp != chirp:
            raise ValueError("baseline profiles must share one chirp configuration")
    if feature_range_hint_m is not None and not math.isfinite(feature_range_hint_m):
        raise ValueError(
            f"feature_range_hint_m must be a finite number, got {feature_range_hint_m!r}"
        )
    mean_rsa = np.mean([p.rsa for p in profiles], axis=0)
    averaged = RangeProfile(mean_rsa, chirp)

    floor = MIN_RSA_FRACTION * float(mean_rsa.max()) if mean_rsa.size else 0.0
    peaks = find_peaks_in_series(averaged.ranges_m, averaged.rsa, min_rsa=floor)
    if feature_range_hint_m is None:
        if not peaks:
            raise ValueError("baseline profile has no peaks to anchor on")
        return Baseline(averaged, max(peaks, key=lambda p: p.rsa), label)
    n = len(averaged)
    # Clamped first: a hint far past the profile would overflow round().
    hint_bin = feature_range_hint_m / averaged.bin_spacing_m
    hint_bin = round(min(max(hint_bin, -HINT_BINS - 1), n + HINT_BINS))
    if not -HINT_BINS <= hint_bin < n + HINT_BINS:
        raise ValueError(
            f"feature_range_hint_m {feature_range_hint_m} m is more than {HINT_BINS} bins "
            f"outside the profile, which spans 0 to {n * averaged.bin_spacing_m:.6g} m"
        )
    near = [p for p in peaks if abs(p.bin_index - hint_bin) <= HINT_BINS]
    if not near:
        raise ValueError(
            f"reference feature not found within {HINT_BINS} bins of "
            f"{feature_range_hint_m} m"
        )
    return Baseline(averaged, max(near, key=lambda p: p.rsa), label)


def rrm(target_peak: Peak, baseline: Baseline) -> float:
    """Plain amplitude ratio of a target peak to the baseline reference."""
    ref = baseline.reference_feature.rsa
    if ref <= 0:
        raise ValueError(f"baseline reference rsa must be > 0, got {ref}")
    if target_peak.rsa <= 0:
        raise ValueError(f"target peak rsa must be > 0, got {target_peak.rsa}")
    return target_peak.rsa / ref


def rrm_compensated(target_peak: Peak, baseline: Baseline) -> float:
    """rrm with inverse-square spreading undone on both peaks.

    Each rsa is scaled by (range/r0)^2, r0 being REFERENCE_RANGE_M, so
    peaks at different ranges compare; the result approximates the bare
    reflectivity ratio the classifier bands were drawn for. Raw profiles
    keep their spreading; only classification looks at compensated values.
    """
    ref_gain = (baseline.reference_feature.range_m / REFERENCE_RANGE_M) ** 2
    gain = (target_peak.range_m / REFERENCE_RANGE_M) ** 2
    compensated = Peak(
        target_peak.range_m, target_peak.rsa * gain, target_peak.prominence, target_peak.bin_index
    )
    return rrm(compensated, baseline) / ref_gain


def classify(value: float, bands: ClassBands = DEFAULT_BANDS) -> TargetClass:
    """Map an rrm value onto the three-way class bands."""
    if value <= 0:
        raise ValueError(f"rrm must be > 0, got {value}")
    if value <= bands.infrastructure_max:
        return TargetClass.INFRASTRUCTURE
    if value <= bands.human_max:
        return TargetClass.HUMAN
    return TargetClass.METALLIC


def calibrate_bands(labeled: Iterable[tuple[float, TargetClass]]) -> ClassBands:
    """Fit band edges from labeled rrm samples.

    Each edge is the geometric mean of the neighbouring class extremes
    (max of the lower class, min of the upper class). At least two
    distinct classes must be present and their rrm ranges must not
    overlap. When Infrastructure is absent the lower edge defaults to the
    self-ratio anchor 1.0; when Metallic is absent the upper edge is
    unbounded.
    """
    groups: dict[TargetClass, list[float]] = {}
    for value, cls in labeled:
        if value <= 0:
            raise ValueError(f"rrm samples must be > 0, got {value}")
        if not math.isfinite(value):
            raise ValueError(f"rrm samples must be finite, got {value}")
        groups.setdefault(TargetClass(cls), []).append(value)

    present = sorted(groups)
    if len(present) < 2:
        raise ValueError("need ≥ 2 classes to place a band edge")
    if present == [TargetClass.INFRASTRUCTURE, TargetClass.METALLIC]:
        raise ValueError(
            "cannot calibrate: no Human samples between Infrastructure and Metallic"
        )
    for lower, upper in zip(present, present[1:]):
        if max(groups[lower]) >= min(groups[upper]):
            raise ValueError(
                f"class rrm ranges not separable: max({lower.name.title()}) = "
                f"{max(groups[lower])} >= min({upper.name.title()}) = {min(groups[upper])}"
            )

    # Human is present from here on: two classes without it were rejected above.
    human = groups[TargetClass.HUMAN]
    if TargetClass.INFRASTRUCTURE in groups:
        infrastructure_max = math.sqrt(max(groups[TargetClass.INFRASTRUCTURE]) * min(human))
    else:
        infrastructure_max = 1.0
        if min(human) <= infrastructure_max:
            raise ValueError(
                "class rrm ranges not separable from the Infrastructure anchor 1.0"
            )
    if TargetClass.METALLIC in groups:
        human_max = math.sqrt(max(human) * min(groups[TargetClass.METALLIC]))
    else:
        human_max = math.inf
    return ClassBands(infrastructure_max, human_max)
