import math

import pytest

from wallsense import (
    INITIAL_STATE,
    OccupancyReport,
    Peak,
    SafetyState,
    SafetyTier,
    TargetClass,
    TierConfig,
    format_log_line,
    update_door_policy,
    update_tier,
)

H = TargetClass.HUMAN
M = TargetClass.METALLIC
I = TargetClass.INFRASTRUCTURE


def _peak(range_m):
    return Peak(range_m, 0.01, 0.01, int(range_m / 0.0749481145))


def _human(range_m):
    return (_peak(range_m), H)


def _state(tier, cfg=TierConfig()):
    return SafetyState(tier, cfg.speed_cap_for(tier), True, "test")


class TestTierSelection:
    def test_close_human_stops(self):
        state = update_tier(INITIAL_STATE, [_human(0.8)])
        assert state.tier is SafetyTier.STOP
        assert state.speed_cap == 0.0
        assert state.cause == "human at 0.80 m"

    def test_mid_range_human_slows(self):
        state = update_tier(INITIAL_STATE, [_human(2.0)])
        assert state.tier is SafetyTier.SLOW
        assert state.speed_cap == 0.25

    def test_distant_human_is_normal(self):
        state = update_tier(INITIAL_STATE, [_human(5.0)])
        assert state.tier is SafetyTier.NORMAL
        assert state.speed_cap == 1.0
        assert state.cause == "human at 5.00 m"

    def test_non_humans_never_slow(self):
        peaks = [(_peak(0.3), I), (_peak(0.5), M)]
        state = update_tier(INITIAL_STATE, peaks)
        assert state.tier is SafetyTier.NORMAL
        assert state.cause == "clear"

    def test_nearest_human_governs(self):
        state = update_tier(INITIAL_STATE, [_human(2.5), _human(0.7)])
        assert state.tier is SafetyTier.STOP
        assert state.cause == "human at 0.70 m"

    def test_boundaries_are_exclusive(self):
        # tiers switch strictly below the boundary
        assert update_tier(INITIAL_STATE, [_human(1.0)]).tier is SafetyTier.SLOW
        assert update_tier(INITIAL_STATE, [_human(0.999)]).tier is SafetyTier.STOP
        assert update_tier(INITIAL_STATE, [_human(3.0)]).tier is SafetyTier.NORMAL
        assert update_tier(INITIAL_STATE, [_human(2.999)]).tier is SafetyTier.SLOW

    def test_severity_monotone_in_distance(self):
        distances = [0.2, 0.6, 0.999, 1.0, 1.5, 2.999, 3.0, 4.0, 8.0]
        tiers = [update_tier(INITIAL_STATE, [_human(d)]).tier for d in distances]
        assert tiers == sorted(tiers, reverse=True)

    def test_custom_speed_cap(self):
        cfg = TierConfig(slow_speed_cap=0.4)
        state = update_tier(INITIAL_STATE, [_human(2.0)], cfg)
        assert state.speed_cap == 0.4


class TestHysteresis:
    def test_slow_holds_inside_margin_then_releases(self):
        state = update_tier(INITIAL_STATE, [_human(2.0)])
        assert state.tier is SafetyTier.SLOW
        # 3.05 m is past the 3.0 m boundary but inside the 0.2 m margin
        state = update_tier(state, [_human(3.05)])
        assert state.tier is SafetyTier.SLOW
        state = update_tier(state, [_human(3.25)])
        assert state.tier is SafetyTier.NORMAL

    def test_stop_holds_inside_margin_then_releases(self):
        state = update_tier(INITIAL_STATE, [_human(0.8)])
        assert state.tier is SafetyTier.STOP
        state = update_tier(state, [_human(1.1)])
        assert state.tier is SafetyTier.STOP
        state = update_tier(state, [_human(1.25)])
        assert state.tier is SafetyTier.SLOW

    def test_escalation_is_immediate(self):
        assert update_tier(INITIAL_STATE, [_human(0.5)]).tier is SafetyTier.STOP

    def test_margin_never_escalates(self):
        # a human at 1.1 m from NORMAL lands in SLOW, not STOP, even
        # though 1.1 m is inside the widened stop boundary
        state = update_tier(INITIAL_STATE, [_human(1.1)])
        assert state.tier is SafetyTier.SLOW

    def test_empty_scan_releases_fully(self):
        state = update_tier(_state(SafetyTier.STOP), [])
        assert state.tier is SafetyTier.NORMAL
        assert state.cause == "clear"

    def test_zero_hysteresis_tracks_raw_tiers(self):
        cfg = TierConfig(hysteresis_m=0.0)
        state = update_tier(_state(SafetyTier.SLOW, cfg), [_human(3.01)], cfg)
        assert state.tier is SafetyTier.NORMAL


class TestDoorPolicy:
    def _occupied(self, range_m=1.6):
        det = Peak(range_m, 0.05, 0.05, 21)
        return OccupancyReport(True, (det,), 0, 0.0749481145)

    def _clear(self):
        return OccupancyReport(False, (), 0, 0.0749481145)

    def test_occupied_blocks_entry(self):
        state = update_door_policy(INITIAL_STATE, self._occupied())
        assert not state.door_entry_allowed
        assert state.cause == "door blocked at 1.60 m"
        assert state.tier is INITIAL_STATE.tier
        assert state.speed_cap == INITIAL_STATE.speed_cap

    def test_clear_restores_entry_without_latching(self):
        blocked = update_door_policy(INITIAL_STATE, self._occupied())
        restored = update_door_policy(blocked, self._clear())
        assert restored.door_entry_allowed
        # cause is left for the tier logic to own when the door is clear
        assert restored.cause == blocked.cause

    def test_tier_state_is_untouched(self):
        stopped = update_tier(INITIAL_STATE, [_human(0.8)])
        state = update_door_policy(stopped, self._occupied())
        assert state.tier is SafetyTier.STOP
        assert state.speed_cap == 0.0


class TestLogFormat:
    def test_exact_line(self):
        state = SafetyState(SafetyTier.SLOW, 0.25, True, "human at 2.00 m")
        assert format_log_line(3, state) == (
            "t=3 tier=Slow cap=0.25 door=True cause=human at 2.00 m"
        )

    def test_integral_cap_prints_bare(self):
        state = SafetyState(SafetyTier.NORMAL, 1.0, False, "clear")
        assert format_log_line(0, state) == "t=0 tier=Normal cap=1 door=False cause=clear"


class TestTierConfigValidation:
    def test_ranges_must_be_ordered(self):
        with pytest.raises(ValueError, match="stop_range_m < slow_range_m"):
            TierConfig(stop_range_m=3.0, slow_range_m=1.0)
        with pytest.raises(ValueError, match="stop_range_m < slow_range_m"):
            TierConfig(stop_range_m=2.0, slow_range_m=2.0)
        with pytest.raises(ValueError, match="stop_range_m < slow_range_m"):
            TierConfig(stop_range_m=0.0)

    def test_cap_must_be_a_real_limit(self):
        with pytest.raises(ValueError, match="slow_speed_cap"):
            TierConfig(slow_speed_cap=0.0)
        with pytest.raises(ValueError, match="slow_speed_cap"):
            TierConfig(slow_speed_cap=1.0)

    def test_hysteresis_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="hysteresis_m"):
            TierConfig(hysteresis_m=-0.1)

    def test_nan_hysteresis_is_rejected(self):
        # Accepted, NaN would turn hysteresis off: every widened comparison is false.
        with pytest.raises(ValueError, match=r"^hysteresis_m must be >= 0, got nan$"):
            TierConfig(hysteresis_m=math.nan)

    def test_initial_state(self):
        assert INITIAL_STATE == SafetyState(SafetyTier.NORMAL, 1.0, True, "clear")
