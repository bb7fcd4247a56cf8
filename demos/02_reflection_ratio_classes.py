#!/usr/bin/env python3
"""Classify targets by their reflection magnitude relative to a baseline.

An empty-room scan fixes a reference feature (here the 6 m lab wall).
Each later target peak is compared to that reference after undoing the
inverse-square spreading, which makes the ratio track material
reflectivity instead of distance.

Run:  python3 demos/02_reflection_ratio_classes.py
"""

from wallsense import (
    DEFAULT_BANDS,
    DEFAULT_CHIRP,
    HUMAN_BODY,
    LAB_WALL,
    SHEET_METAL,
    Scatterer,
    Scene,
    Wall,
    calibrate_bands,
    capture_baseline,
    classify,
    detect_peaks,
    range_profile,
    rrm_compensated,
    synthesize_beat,
)

BACK_WALL = Wall("back_wall", 6.0, LAB_WALL)


def scan(scatterers=()):
    scene = Scene(scatterers=scatterers, walls=(BACK_WALL,), phase_seed=1)
    return range_profile(synthesize_beat(scene, DEFAULT_CHIRP))


def main():
    baseline = capture_baseline([scan()], feature_range_hint_m=6.0)
    ref = baseline.reference_feature
    print(f"baseline reference: wall at {ref.range_m:.2f} m, rsa {ref.rsa:.5g}")
    print()
    print("  target            range_m   ratio    class")

    cases = [
        ("person", HUMAN_BODY),
        ("metal sheet", SHEET_METAL),
    ]
    for label, material in cases:
        for r in (1.0, 2.0, 3.0):
            prof = scan((Scatterer("t", r, material),))
            peaks = detect_peaks(prof, min_prominence=1e-4, min_rsa=2e-4)
            target = max(
                (p for p in peaks if abs(p.range_m - r) < 0.5), key=lambda p: p.rsa
            )
            ratio = rrm_compensated(target, baseline)
            cls = classify(ratio, DEFAULT_BANDS)
            print(f"  {label:<16}  {r:6.2f}  {ratio:7.3f}  {cls}")
    print()
    print(f"bands: infrastructure <= {DEFAULT_BANDS.infrastructure_max:.3f}"
          f" < human <= {DEFAULT_BANDS.human_max:.3f} < metallic")

    # the same fit the calibrate CLI command performs on the stock set
    rows = [(1.0, classify(1.0)), (1.55, classify(1.55)), (10.79, classify(10.79))]
    print("refit from three labeled samples:", calibrate_bands(rows))


if __name__ == "__main__":
    main()
