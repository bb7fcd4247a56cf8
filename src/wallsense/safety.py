"""Tiered speed limiting and door interlocks driven by detections.

Tier selection keys on the nearest Human-classified peak only; metal and
infrastructure never slow the robot. Escalation is immediate. Dropping to
a gentler tier additionally requires the distance to clear the boundary
being crossed by a hysteresis margin, so a person hovering at a boundary
cannot make the tier chatter:

    raw tier      distance against the plain boundaries
    widened tier  distance against boundaries pushed out by hysteresis_m
    next tier     max(raw, min(current, widened))

which is exactly "escalate by raw, hold by widened, never hold above the
current tier".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Sequence

from .classify import TargetClass
from .profile import Peak
from .throughwall import OccupancyReport


class SafetyTier(IntEnum):
    NORMAL = 0
    SLOW = 1
    STOP = 2

    def __str__(self) -> str:
        return self.name.title()


@dataclass(frozen=True)
class TierConfig:
    stop_range_m: float = 1.0
    slow_range_m: float = 3.0
    slow_speed_cap: float = 0.25
    hysteresis_m: float = 0.2

    def __post_init__(self) -> None:
        if not 0 < self.stop_range_m < self.slow_range_m:
            raise ValueError(
                "tier config must satisfy 0 < stop_range_m < slow_range_m, got "
                f"({self.stop_range_m}, {self.slow_range_m})"
            )
        if not 0 < self.slow_speed_cap < 1:
            raise ValueError(f"slow_speed_cap must be in (0, 1), got {self.slow_speed_cap}")
        if not self.hysteresis_m >= 0:  # NaN included
            raise ValueError(f"hysteresis_m must be >= 0, got {self.hysteresis_m}")

    def speed_cap_for(self, tier: SafetyTier) -> float:
        return {
            SafetyTier.NORMAL: 1.0,
            SafetyTier.SLOW: self.slow_speed_cap,
            SafetyTier.STOP: 0.0,
        }[tier]


@dataclass(frozen=True)
class SafetyState:
    tier: SafetyTier
    speed_cap: float
    door_entry_allowed: bool
    cause: str


INITIAL_STATE = SafetyState(SafetyTier.NORMAL, 1.0, True, "clear")


def _tier_for(distance_m: float, stop_range_m: float, slow_range_m: float) -> SafetyTier:
    if distance_m < stop_range_m:
        return SafetyTier.STOP
    if distance_m < slow_range_m:
        return SafetyTier.SLOW
    return SafetyTier.NORMAL


def update_tier(
    state: SafetyState,
    classified_peaks: Sequence[tuple[Peak, TargetClass]],
    config: TierConfig = TierConfig(),
) -> SafetyState:
    """Advance the tier state machine by one scan of classified peaks."""
    humans = [p for p, cls in classified_peaks if cls == TargetClass.HUMAN]
    if humans:
        nearest = min(humans, key=lambda p: p.range_m)
        distance = nearest.range_m
        cause = f"human at {nearest.range_m:.2f} m"
    else:
        distance = math.inf
        cause = "clear"

    raw = _tier_for(distance, config.stop_range_m, config.slow_range_m)
    widened = _tier_for(
        distance,
        config.stop_range_m + config.hysteresis_m,
        config.slow_range_m + config.hysteresis_m,
    )
    tier = max(raw, min(state.tier, widened))
    return replace(
        state,
        tier=tier,
        speed_cap=config.speed_cap_for(tier),
        cause=cause,
    )


def update_door_policy(state: SafetyState, occupancy: OccupancyReport) -> SafetyState:
    """Gate door entry on zone occupancy; tier and speed stay untouched.

    No latching: the flag follows the current report, so a cleared zone
    restores entry immediately.
    """
    if occupancy.occupied:
        strongest = occupancy.strongest()
        return replace(
            state,
            door_entry_allowed=False,
            cause=f"door blocked at {strongest.range_m:.2f} m",
        )
    return replace(state, door_entry_allowed=True)


def format_log_line(scan_index: int, state: SafetyState) -> str:
    """One fixed-format line per scan for the safety log."""
    return (
        f"t={scan_index} tier={state.tier} cap={state.speed_cap:g} "
        f"door={state.door_entry_allowed} cause={state.cause}"
    )
