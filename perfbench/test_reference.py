"""The benchmark's reference checks accept wallsense's output and reject perturbed output.

Run with `python -m pytest perfbench` from the repository root. Each check
is shown passing on a real output and failing on the same output with one
defect planted (a range two bins off, a flipped tier, swapped bands, one
altered sample), so a check that passes vacuously is caught.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference as ref
import wallsense as ws
import workloads as wl
from reference import BIN_M, CheckFailed

WALLS = (ws.Wall("partition", 0.10, ws.PLASTERBOARD), ws.Wall("far_wall", 2.60, ws.PLASTERBOARD))
ZONE = ws.MonitorZone(near_m=0.10, far_m=2.60)


def _tuples(items):
    return [(x.id, x.range_m, x.material.reflectivity, x.material.transmissivity) for x in items]


def _scene(noise=0.0):
    return ws.Scene(
        scatterers=(ws.Scatterer("person", 1.7, ws.HUMAN_BODY), ws.Scatterer("plate", 3.3, ws.SHEET_METAL)),
        walls=WALLS + (ws.Wall("back", 5.0, ws.LAB_WALL),),
        noise_amplitude=noise,
        rng_seed=5,
        phase_seed=9,
    )


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_beat_model_matches_and_rejects_one_altered_sample(noise):
    scene = _scene(noise)
    got = ws.synthesize_beat(scene).samples.copy()
    want = ref.beat_samples(_tuples(scene.walls), _tuples(scene.scatterers), noise, 5, 9)
    ref.check_close("beat", got, want)
    got[500] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        ref.check_close("beat", got, want)


def test_direct_dft_matches_and_rejects_one_altered_bin():
    beat = ws.synthesize_beat(_scene(1e-3))
    got = ws.range_profile(beat).rsa.copy()
    want = ref.direct_profile(beat.samples)
    ref.check_close("profile", got, want)
    got[int(np.argmax(got))] *= 1 + 1e-7
    with pytest.raises(CheckFailed):
        ref.check_close("profile", got, want)


def test_within_bin_rejects_a_two_bin_shift():
    prof = ws.range_profile(ws.synthesize_beat(_scene()))
    peaks = ws.detect_peaks(prof, 1e-4, 2e-4)
    person = min(peaks, key=lambda p: abs(p.range_m - 1.7))
    ref.check_within_bin("person", person.range_m, 1.7)
    with pytest.raises(CheckFailed):
        ref.check_within_bin("person", person.range_m + 2 * BIN_M, 1.7)
    with pytest.raises(CheckFailed):
        ref.check_within_bin("person", None, 1.7)


def test_tier_rule_by_hand():
    distances = [5.0, 2.9, 3.1, 3.3, 0.9, 1.1, 1.3, None]
    assert ref.tier_sequence(distances) == ["Normal", "Slow", "Slow", "Normal", "Stop", "Stop", "Slow", "Normal"]


def test_tier_rule_matches_update_tier_and_rejects_a_flipped_tier():
    rng = np.random.default_rng(0)
    distances = [float(d) for d in rng.uniform(0.3, 4.5, 400)]
    state = ws.INITIAL_STATE
    got = []
    for d in distances:
        peak = ws.Peak(d, 0.01, 0.01, 0)
        state = ws.update_tier(state, [(peak, ws.TargetClass.HUMAN)])
        got.append(str(state.tier))
    want = ref.tier_sequence(distances)
    assert len(set(want)) == 3
    ref.check_sequence("tiers", got, want)
    flipped = list(got)
    flipped[200] = "Stop" if flipped[200] != "Stop" else "Normal"
    with pytest.raises(CheckFailed):
        ref.check_sequence("tiers", flipped, want)


def test_approach_rule_by_hand():
    s = BIN_M
    ranges = [None, 2.0, 2.0 - 2 * s, 2.0 - 4 * s, None, 2.0 - 2 * s, 2.0, 2.0 + 3 * s, 2.0 + 3 * s]
    assert ref.approach_statuses(ranges) == [
        "Empty", "Static", "Static", "Approaching", "Approaching", "Static", "Receding", "Receding", "Static",
    ]
    assert ref.approach_statuses([1.0, 1.0 + 1.5 * s, 1.0 + 3 * s], tolerance_m=s) == ["Static", "Static", None]


def test_approach_rule_matches_track_approach_and_rejects_a_flipped_status(tmp_path):
    truth = wl._traverse(np.random.default_rng(1), 60, 0.40, 2.30)
    empty = ws.Scene(walls=WALLS, rng_seed=3, phase_seed=4)
    baseline = ws.capture_baseline([ws.range_profile(ws.synthesize_beat(empty))], 2.60)
    reports, got = [], []
    for i, r in enumerate(truth):
        sheet = () if r is None else (ws.Scatterer("sheet", r, ws.SHEET_METAL),)
        scene = ws.Scene(scatterers=sheet, walls=WALLS, rng_seed=4 + i, phase_seed=4)
        reports.append(ws.detect_occupancy(baseline, ws.range_profile(ws.synthesize_beat(scene)), ZONE, i))
        got.append(ws.track_approach(reports, ZONE).status.value)
    want = ref.approach_statuses(truth, tolerance_m=2 * BIN_M)
    assert {"Approaching", "Receding", "Static"} <= set(want)
    ref.check_sequence("status", got, want)
    i = next(k for k, w in enumerate(want) if w == "Approaching")
    flipped = got[:i] + ["Receding"] + got[i + 1:]
    with pytest.raises(CheckFailed):
        ref.check_sequence("status", flipped, want)


def test_geometric_bands_of_the_stock_set_and_swapped_bands():
    labeled = wl._stock_labeled()
    want = ref.geometric_bands(labeled)
    assert want == (math.sqrt(1.0 * 1.32), math.sqrt(1.88 * 7.51))
    bands = ws.calibrate_bands(ws.parse_labeled_rrm_csv("rrm,label\n" + "".join(f"{v},{c}\n" for v, c in labeled)))
    ref.check_bands("stock", (bands.infrastructure_max, bands.human_max), want)
    with pytest.raises(CheckFailed):
        ref.check_bands("stock", (bands.human_max, bands.infrastructure_max), want)


def test_raw_maxima_follows_the_plateau_rule():
    from wallsense.profile import _plateau_maxima

    assert ref.raw_maxima([0, 1, 1, 0, 2, 2, 2, 3, 1, 1]) == 2
    assert ref.raw_maxima([3, 1, 2]) == 0
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.integers(0, 4, int(rng.integers(0, 40))).astype(float)
        assert ref.raw_maxima(v) == len(_plateau_maxima(v))


def test_cli_checks_reject_planted_defects(tmp_path):
    truth = [None, 1.0, 1.0 + 5 * BIN_M, 1.0 + 10 * BIN_M]
    rows = ["scan_index,occupied,range_m,excess_rsa,status"]
    statuses = ["Empty", "Static", "Static", "Receding"]
    for i, (r, st) in enumerate(zip(truth, statuses)):
        rows.append(f"{i},{r is not None},{'' if r is None else r},{'' if r is None else 0.1},{st}")
    (tmp_path / "monitor.csv").write_text("\n".join(rows) + "\n")
    outcome = wl.CliOutcome(0, "", "", tmp_path)
    check = wl._check_monitor_truth(truth)
    check(outcome)
    shifted = list(truth)
    shifted[2] += 2 * BIN_M
    with pytest.raises(CheckFailed):
        wl._check_monitor_truth(shifted)(outcome)
    (tmp_path / "monitor.csv").write_text("\n".join(rows[:-1] + [rows[-1].replace("Receding", "Approaching")]) + "\n")
    with pytest.raises(CheckFailed):
        check(outcome)

    labeled = wl._stock_labeled()
    infra, human = ref.geometric_bands(labeled)
    (tmp_path / "bands.json").write_text(ws.bands_to_json(ws.ClassBands(infra, human)))
    wl._check_bands(labeled)(outcome)
    (tmp_path / "bands.json").write_text(f'{{"infrastructure_max": {human}, "human_max": {infra}}}')
    with pytest.raises(CheckFailed):
        wl._check_bands(labeled)(outcome)
