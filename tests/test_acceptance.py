"""Acceptance surface: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the same condition, so the -v listing doubles as the checklist.
Criteria with runtime budgets measure and enforce them.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from wallsense import (
    DEFAULT_CHIRP,
    HUMAN_BODY,
    LAB_WALL,
    ApproachStatus,
    Baseline,
    BeatSignal,
    ChirpConfig,
    Peak,
    RangeProfile,
    SafetyState,
    SafetyTier,
    Scatterer,
    Scene,
    TargetClass,
    TierConfig,
    Wall,
    Window,
    builtin_scenario,
    calibrate_bands,
    capture_baseline,
    classify,
    detect_occupancy,
    detect_peaks,
    range_profile,
    rrm,
    run_scenario,
    synthesize_beat,
    update_door_policy,
    update_tier,
    write_run_result,
)
from wallsense.throughwall import OccupancyReport

from oracles import naive_spectrum

# The shipped calibration set: an empty-room reference ratio of 1, four
# human readings, four bare-metal readings.
CALIBRATION_ROWS = [
    (1.0, TargetClass.INFRASTRUCTURE),
    (1.55, TargetClass.HUMAN),
    (1.88, TargetClass.HUMAN),
    (1.51, TargetClass.HUMAN),
    (1.32, TargetClass.HUMAN),
    (14.93, TargetClass.METALLIC),
    (10.79, TargetClass.METALLIC),
    (7.51, TargetClass.METALLIC),
    (13.52, TargetClass.METALLIC),
]


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _dummy_baseline(ref_rsa: float) -> Baseline:
    prof = RangeProfile(np.zeros(500), DEFAULT_CHIRP)
    return Baseline(prof, Peak(6.0, ref_rsa, ref_rsa, 80), "ref")


def test_criterion_1_calibration_set_round_trip():
    start = time.perf_counter()
    bands = calibrate_bands(CALIBRATION_ROWS)
    correct = sum(classify(value, bands) is cls for value, cls in CALIBRATION_ROWS)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1 (calibration round trip)",
        correct == 9 and elapsed < 1.0,
        f"{correct}/9 labels correct in {elapsed:.3f} s (budget 1 s)",
    )


def test_criterion_2_ratio_arithmetic():
    worst = 0.0
    for value, _ in CALIBRATION_ROWS:
        for ref_rsa in (0.00139, 0.2, 1.0, 3.7):
            ratio = rrm(
                Peak(2.0, value * ref_rsa, value * ref_rsa, 27),
                _dummy_baseline(ref_rsa),
            )
            worst = max(worst, abs(ratio - value) / value)
    _verdict(
        "criterion 2 (ratio arithmetic)",
        worst <= 1e-12,
        f"worst relative error {worst:.3g} over 36 peak/reference pairs (tol 1e-12)",
    )


def test_criterion_3_spectral_oracle_equivalence():
    start = time.perf_counter()
    sizes = [16, 33, 64, 100, 128, 250, 256, 500, 512, 777,
             1000, 1024, 2000, 2048, 3333, 4096]
    worst = 0.0
    count = 0
    for seed in range(52):
        n = sizes[seed % len(sizes)]
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(n)
        if seed % 3 == 0:
            # strong deterministic tone on top of the noise
            samples = samples + 5.0 * np.cos(2 * np.pi * (n // 7) * np.arange(n) / n)
        beat = BeatSignal(samples, ChirpConfig(2e9, n * 1e-6, 1e6))
        fast = range_profile(beat, window=Window.RECT)
        slow = naive_spectrum(beat)
        worst = max(worst, float(np.max(np.abs(fast.rsa - slow.rsa)) / np.max(slow.rsa)))
        count += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 3 (spectral oracle equivalence)",
        count >= 50 and worst <= 1e-9 and elapsed < 30.0,
        f"{count} signals, worst relative max error {worst:.3g} "
        f"in {elapsed:.2f} s (tol 1e-9, budget 30 s)",
    )


def test_criterion_4_localization_grid():
    spacing = None
    errors = []
    for truth in (1.0, 2.0, 3.0, 4.0):
        scene = Scene(scatterers=(Scatterer("target", truth, HUMAN_BODY),))
        prof = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
        spacing = prof.bin_spacing_m
        peak_range = float(prof.ranges_m[int(np.argmax(prof.rsa))])
        errors.append(abs(peak_range - truth))
    hits = sum(e <= spacing for e in errors)
    _verdict(
        "criterion 4 (localization)",
        hits == 4,
        f"{hits}/4 targets within one bin ({spacing * 100:.2f} cm); "
        f"worst error {max(errors) * 100:.2f} cm",
    )


def test_criterion_5_through_wall_traverse():
    scenario = builtin_scenario("copper_traverse")
    result = run_scenario(scenario)
    spacing = result.steps[0].profile.bin_spacing_m
    truths = [2.2, 1.6, 1.0, 0.4]
    occupied = sum(step.occupancy.occupied for step in result.steps)
    within = sum(
        abs(step.occupancy.strongest().range_m - truth) <= spacing
        for step, truth in zip(result.steps, truths)
        if step.occupancy.occupied
    )
    approaching = result.track.status is ApproachStatus.APPROACHING
    base_profile = range_profile(synthesize_beat(scenario.base_scene, scenario.chirp))
    self_check = detect_occupancy(result.baseline, base_profile, scenario.zone)
    _verdict(
        "criterion 5 (through-wall traverse)",
        occupied == 4 and within == 4 and approaching and not self_check.occupied,
        f"occupied {occupied}/4, within one bin {within}/4, "
        f"track {result.track.status.value}, empty self-comparison occupied "
        f"{self_check.occupied}",
    )


def test_criterion_6_noise_robustness():
    start = time.perf_counter()
    # Recovery scene: person at 2 m in front of a 6 m wall. The wall is the
    # weakest reflector; its windowed peak sits at amplitude/2 and hann
    # noise bins average rsa sigma*sqrt(1.5/N), so 20 dB at the wall means
    # sigma = (amp/2) * sqrt(N/1.5) / 10.
    wall_amp = 0.05 / 36.0
    n = DEFAULT_CHIRP.n_samples
    sigma = (wall_amp / 2.0) * math.sqrt(n / 1.5) / 10.0
    recovered = 0
    for seed in range(1, 101):
        scene = Scene(
            scatterers=(Scatterer("person", 2.0, HUMAN_BODY),),
            walls=(Wall("back", 6.0, LAB_WALL),),
            noise_amplitude=sigma,
            rng_seed=seed,
            phase_seed=7,
        )
        prof = range_profile(synthesize_beat(scene, DEFAULT_CHIRP))
        peaks = detect_peaks(prof, min_prominence=2e-4, min_rsa=4.2e-4)
        recovered += (
            len(peaks) == 2
            and abs(peaks[0].range_m - 2.0) <= prof.bin_spacing_m
            and abs(peaks[1].range_m - 6.0) <= prof.bin_spacing_m
        )

    # False positives: the empty monitored corridor under the same SNR
    # rule, referenced to its weakest reflector (the far wall).
    scenario = builtin_scenario("copper_traverse")
    base = scenario.base_scene
    baseline = capture_baseline(
        [range_profile(synthesize_beat(base, scenario.chirp))], 2.60
    )
    far_amp = 0.05 * 0.7**2 / 2.6**2
    sigma_fp = (far_amp / 2.0) * math.sqrt(n / 1.5) / 10.0
    false_positives = 0
    for seed in range(1, 101):
        noisy = replace(
            base,
            noise_amplitude=sigma_fp,
            rng_seed=seed,
            phase_seed=base.effective_phase_seed,
        )
        scan = range_profile(synthesize_beat(noisy, scenario.chirp))
        false_positives += detect_occupancy(baseline, scan, scenario.zone).occupied
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 6 (noise robustness)",
        recovered >= 95 and false_positives == 0 and elapsed < 120.0,
        f"recovery {recovered}/100 (need >= 95), false positives "
        f"{false_positives}/100 (need 0) in {elapsed:.1f} s (budget 120 s)",
    )


# --- criterion 7 -----------------------------------------------------------

GRID = [0.25 * k for k in range(1, 17)]  # 0.25 m .. 4.0 m
INPUTS = GRID + [None]  # None = scan with no human detection

CONFIGS = [
    TierConfig(),
    TierConfig(stop_range_m=0.5, slow_range_m=2.0, hysteresis_m=0.1),
    TierConfig(stop_range_m=1.0, slow_range_m=3.0, slow_speed_cap=0.5, hysteresis_m=0.5),
    TierConfig(stop_range_m=1.0, slow_range_m=3.0, hysteresis_m=0.0),
    # hysteresis margin wider than the stop/slow gap
    TierConfig(stop_range_m=2.9, slow_range_m=3.0, hysteresis_m=0.5),
]


def _next_state(cfg: TierConfig, tier: SafetyTier, d: float | None) -> SafetyState:
    state = SafetyState(tier, cfg.speed_cap_for(tier), True, "x")
    peaks = [] if d is None else [(Peak(d, 0.01, 0.01, 0), TargetClass.HUMAN)]
    return update_tier(state, peaks, cfg)


def _raw_tier(cfg: TierConfig, d: float | None) -> SafetyTier:
    if d is None:
        return SafetyTier.NORMAL
    if d < cfg.stop_range_m:
        return SafetyTier.STOP
    return SafetyTier.SLOW if d < cfg.slow_range_m else SafetyTier.NORMAL


def _oracle_tier(cfg: TierConfig, cur: SafetyTier, d: float | None) -> SafetyTier:
    # Independent restatement of the update rule: take the plain-boundary
    # tier, then hold the current tier's level while still inside its
    # widened boundary. Written as a case walk, not as max/min algebra.
    raw = _raw_tier(cfg, d)
    if d is None:
        return raw
    held = raw
    if cur is SafetyTier.STOP and d < cfg.stop_range_m + cfg.hysteresis_m:
        held = SafetyTier.STOP
    elif cur >= SafetyTier.SLOW and d < cfg.slow_range_m + cfg.hysteresis_m:
        held = SafetyTier.SLOW
    return max(raw, held)


def test_criterion_7_safety_state_machine():
    start = time.perf_counter()
    edge_checks = 0
    # Part 1: every (config, tier, input) edge against the independent
    # oracle plus the four per-edge invariants.
    for cfg in CONFIGS:
        for tier in SafetyTier:
            for d in INPUTS:
                state = _next_state(cfg, tier, d)
                raw = _raw_tier(cfg, d)
                assert state.tier is _oracle_tier(cfg, tier, d)
                assert state.tier >= raw  # never gentler than demanded
                assert state.tier <= max(tier, raw)  # hysteresis only holds
                if raw >= tier:
                    assert state.tier is raw  # escalation ignores hysteresis
                assert state.speed_cap == cfg.speed_cap_for(state.tier)
                edge_checks += 1
            # monotone severity across the whole input grid at this tier
            tiers = [
                _next_state(cfg, tier, d).tier for d in GRID + [math.inf]
            ]
            assert tiers == sorted(tiers, reverse=True)

    # Door flag equals negated occupancy, regardless of prior state.
    for prior_door in (True, False):
        for tier in SafetyTier:
            state = SafetyState(tier, 0.25, prior_door, "x")
            det = Peak(1.5, 0.05, 0.05, 20)
            occupied = OccupancyReport(True, (det,), 0, 0.075)
            empty = OccupancyReport(False, (), 0, 0.075)
            assert update_door_policy(state, occupied).door_entry_allowed is False
            assert update_door_policy(state, empty).door_entry_allowed is True

    # Part 2: exhaustive sweep of every detection sequence of length 6
    # (prefixes cover the shorter lengths) for two configs, vectorized
    # over a transition table built from the real implementation.
    sequences = 17 ** 6
    for cfg in (CONFIGS[0], CONFIGS[4]):
        table = np.array(
            [[int(_next_state(cfg, SafetyTier(t), d).tier) for d in INPUTS] for t in range(3)],
            dtype=np.int8,
        )
        raw_row = np.array([int(_raw_tier(cfg, d)) for d in INPUTS], dtype=np.int8)
        idx = np.arange(sequences, dtype=np.int32)
        cur = np.zeros(sequences, dtype=np.int8)
        for step in range(6):
            digit = ((idx // 17 ** step) % 17).astype(np.int8)
            nxt = table[cur, digit]
            raw = raw_row[digit]
            assert np.all(nxt >= raw)
            assert np.all(nxt <= np.maximum(cur, raw))
            escalated = nxt > cur
            assert np.array_equal(nxt[escalated], raw[escalated])
            cur = nxt

        # spot-check that walking the real implementation along whole
        # sequences matches the table walk (no hidden state)
        rng = np.random.default_rng(0)
        for _ in range(200):
            seq = rng.integers(0, 17, size=6)
            state = SafetyState(SafetyTier.NORMAL, 1.0, True, "x")
            t = 0
            for j in seq:
                state = update_tier(
                    state,
                    [] if INPUTS[j] is None else [(Peak(INPUTS[j], 0.01, 0.01, 0), TargetClass.HUMAN)],
                    cfg,
                )
                t = int(table[t, j])
                assert int(state.tier) == t

    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 7 (safety state machine)",
        elapsed < 60.0,
        f"{edge_checks} oracle edges over {len(CONFIGS)} configs, "
        f"{sequences} length-6 sequences swept per config in {elapsed:.1f} s "
        f"(budget 60 s)",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    identical = True
    checked = 0
    for name in ("human_sweep", "copper_traverse"):
        first = write_run_result(run_scenario(builtin_scenario(name)), tmp_path / "a" / name)
        second = write_run_result(run_scenario(builtin_scenario(name)), tmp_path / "b" / name)
        identical &= [p.name for p in first] == [p.name for p in second]
        for pa, pb in zip(first, second):
            identical &= pa.read_bytes() == pb.read_bytes()
            checked += 1
    _verdict(
        "criterion 8 (determinism)",
        identical,
        f"{checked} artifacts byte-identical across reruns of both built-ins",
    )
