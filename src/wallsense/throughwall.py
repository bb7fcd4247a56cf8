"""Occupancy detection behind partitions by baseline subtraction.

A scan of a monitored zone is compared bin-wise against the empty-room
baseline; anything poking above the excess threshold inside the zone is a
detection. Wall returns are identical in both profiles, so they cancel
and only changes survive. A short history of detections yields an
approach/recede verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .classify import Baseline
from .profile import Peak, RangeProfile, find_peaks_in_series

# Consecutive occupied scans needed before motion is called.
TREND_SCANS = 3


@dataclass(frozen=True)
class MonitorZone:
    """Range interval watched for intrusions.

    guard_bins bins are shaved off both ends so skirt energy from the
    bounding walls cannot register as detections.
    """

    near_m: float
    far_m: float
    excess_threshold: float = 0.01
    guard_bins: int = 2

    def __post_init__(self) -> None:
        for name, value in (("near_m", self.near_m), ("far_m", self.far_m)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0 < self.near_m < self.far_m:
            raise ValueError(
                f"zone must satisfy 0 < near_m < far_m, got ({self.near_m}, {self.far_m})"
            )
        if not 0 < self.excess_threshold < math.inf:
            raise ValueError(
                f"excess_threshold must be finite and > 0, got {self.excess_threshold}"
            )
        if not self.guard_bins >= 0:  # NaN included
            raise ValueError(f"guard_bins must be >= 0, got {self.guard_bins}")

    def monitored_interval(self, bin_spacing_m: float) -> tuple[float, float]:
        try:
            guard = self.guard_bins * bin_spacing_m
        except OverflowError:  # an integer count beyond any float
            guard = math.inf
        return self.near_m + guard, self.far_m - guard


class ApproachStatus(Enum):
    EMPTY = "Empty"
    STATIC = "Static"
    APPROACHING = "Approaching"
    RECEDING = "Receding"


@dataclass(frozen=True)
class OccupancyReport:
    occupied: bool
    detections: tuple[Peak, ...]
    scan_index: int
    bin_spacing_m: float

    def strongest(self) -> Peak | None:
        return max(self.detections, key=lambda p: p.rsa) if self.detections else None


@dataclass(frozen=True)
class ApproachTrack:
    status: ApproachStatus
    ranges_m: tuple[float, ...]  # strongest-detection range per occupied scan


def detect_occupancy(
    baseline: Baseline,
    scan: RangeProfile,
    zone: MonitorZone,
    scan_index: int = 0,
) -> OccupancyReport:
    """Compare one scan against the baseline inside the zone.

    Excess is scan.rsa - baseline.rsa per bin, restricted to the interior
    (near + guard, far - guard). Detections are excess peaks at or above
    zone.excess_threshold; occupied means at least one detection.
    """
    if scan.chirp != baseline.profile.chirp:
        raise ValueError("scan and baseline chirp configurations differ")
    lo, hi = zone.monitored_interval(scan.bin_spacing_m)
    if lo >= hi:
        raise ValueError(
            f"guard bins consume the whole zone ({zone.near_m}, {zone.far_m}): "
            f"guard_bins {zone.guard_bins} at a bin spacing of {scan.bin_spacing_m:.6g} m"
        )
    mask = (scan.ranges_m > lo) & (scan.ranges_m < hi)
    idx = np.flatnonzero(mask)
    excess = scan.rsa[idx] - baseline.profile.rsa[idx]
    detections = find_peaks_in_series(
        scan.ranges_m[idx],
        excess,
        min_rsa=zone.excess_threshold,
        bin_offset=int(idx[0]) if idx.size else 0,
    )
    return OccupancyReport(
        occupied=bool(detections),
        detections=tuple(detections),
        scan_index=scan_index,
        bin_spacing_m=scan.bin_spacing_m,
    )


def _trend_status(ranges: Sequence[float], spacing: float) -> ApproachStatus:
    """The approach rule over the occupied-scan ranges seen so far.

    The last TREND_SCANS samples must move by more than one bin spacing per
    scan, consistently, to call Approaching or Receding; otherwise an
    occupied zone is Static.
    """
    if not ranges:
        return ApproachStatus.EMPTY
    tail = ranges[-TREND_SCANS:]
    if len(tail) == TREND_SCANS:
        deltas = [b - a for a, b in zip(tail, tail[1:])]
        if all(d < -spacing for d in deltas):
            return ApproachStatus.APPROACHING
        if all(d > spacing for d in deltas):
            return ApproachStatus.RECEDING
    return ApproachStatus.STATIC


# The last successful call's reports and their ranges, read and rebound once per call.
_last: tuple[tuple[OccupancyReport, ...], tuple[float, ...]] = ((), ())


def track_approach(reports: Sequence[OccupancyReport], zone: MonitorZone) -> ApproachTrack:
    """Summarize motion from an ordered run of occupancy reports.

    The strongest detection per occupied scan gives one range sample, and
    the trend rule compares them in the first report's bin spacing. A call on
    the last call's list, grown, reads only the new reports; any other input
    is read in full.
    """
    global _last
    seen, ranges = _last
    n = len(seen)
    if not (0 < n <= len(reports) and reports[0] is seen[0] and tuple(reports[:n]) == seen):
        n, ranges = 0, ()
    indices = [r.scan_index for r in reports[max(n - 1, 0) :]]
    if indices != sorted(indices):
        raise ValueError("reports must be ordered by scan_index")
    ranges += tuple([r.strongest().range_m for r in reports[n:] if r.occupied])
    _last = (tuple(reports), ranges)
    spacing = reports[0].bin_spacing_m if reports else 0.0
    return ApproachTrack(_trend_status(ranges, spacing), ranges)
