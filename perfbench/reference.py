"""Reference computations the benchmark checks wallsense outputs against.

Nothing here imports wallsense. Each function restates a documented rule
of the program from its description (README "Design notes", module
docstrings) so that a fault in the program cannot hide in a shared
helper. The checks raise CheckFailed with a message naming the scan and
the value that broke the rule.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0

# The stock chirp: 24 GHz center, 2 GHz sweep over 1 ms at 1 MS/s.
BANDWIDTH_HZ = 2e9
SWEEP_TIME_S = 1e-3
SAMPLE_RATE_HZ = 1e6
N_SAMPLES = int(round(SWEEP_TIME_S * SAMPLE_RATE_HZ))

# c / (2B): one range bin of the stock chirp.
BIN_M = SPEED_OF_LIGHT_M_S / (2.0 * BANDWIDTH_HZ)

TIERS = ("Normal", "Slow", "Stop")

# (reflectivity, transmissivity) of the documented material presets.
MATERIALS = {
    "plasterboard": (0.05, 0.7),
    "human": (0.08, 0.3),
    "metal_sheet": (0.9, 0.0),
    "lab_wall": (0.05, 0.0),
}


class CheckFailed(AssertionError):
    """An output of the program broke a reference rule."""


def reflector_phase(phase_seed: int, reflector_id: str) -> float:
    """sha256 of "<phase_seed>:<id>"; first 8 bytes as a fraction of 2*pi."""
    digest = hashlib.sha256(f"{phase_seed}:{reflector_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 * 2.0 * math.pi


def amplitudes(reflectors, walls) -> np.ndarray:
    """reflectivity * prod(transmissivity^2 of strictly nearer walls) * (1 m / R)^2.

    reflectors and walls are sequences of (id, range_m, reflectivity,
    transmissivity) tuples; walls are a subset of reflectors.
    """
    out = np.empty(len(reflectors))
    for k, (_, r, refl, _) in enumerate(reflectors):
        amp = refl
        for _, wr, _, wt in walls:
            if wr < r:
                amp *= wt * wt
        out[k] = amp / (r * r)
    return out


def beat_samples(walls, scatterers, noise_amplitude: float, rng_seed: int, phase_seed: int):
    """Dechirped samples of the stock chirp: sum of amp*cos(2*pi*f*t + phi) plus noise.

    f = 2*B*R / (c*T); the noise is noise_amplitude times numpy's
    default_rng(rng_seed) standard normals.
    """
    reflectors = list(walls) + list(scatterers)
    amp = amplitudes(reflectors, walls)
    ranges = np.array([r for _, r, _, _ in reflectors])
    freq = 2.0 * BANDWIDTH_HZ * ranges / (SPEED_OF_LIGHT_M_S * SWEEP_TIME_S)
    phase = np.array([reflector_phase(phase_seed, rid) for rid, _, _, _ in reflectors])
    t = np.arange(N_SAMPLES) / SAMPLE_RATE_HZ
    samples = (amp[:, None] * np.cos(2.0 * np.pi * freq[:, None] * t[None, :] + phase[:, None])).sum(axis=0)
    if noise_amplitude > 0:
        samples = samples + noise_amplitude * np.random.default_rng(rng_seed).standard_normal(N_SAMPLES)
    return samples


def direct_profile(samples: np.ndarray) -> np.ndarray:
    """Hann-windowed magnitude by the direct Fourier sum, scaled by 2/N, first N//2 bins."""
    n = len(samples)
    idx = np.arange(n)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / (n - 1))
    kernel = np.exp(-2j * np.pi * np.outer(np.arange(n // 2), idx) / n)
    return np.abs(kernel @ (samples * window)) * (2.0 / n)


def raw_maxima(values: np.ndarray) -> int:
    """Local maxima with strictly lower neighbours; a plateau counts once; edges never."""
    v = np.asarray(values)
    if v.size < 3:
        return 0
    runs = v[np.concatenate(([True], v[1:] != v[:-1]))]
    mid = runs[1:-1]
    return int(np.count_nonzero((mid > runs[:-2]) & (mid > runs[2:])))


def tier_for(distance: float, stop_m: float, slow_m: float) -> int:
    if distance < stop_m:
        return 2
    if distance < slow_m:
        return 1
    return 0


def tier_sequence(distances, stop_m=1.0, slow_m=3.0, hysteresis_m=0.2) -> list[str]:
    """Escalate by the raw tier, hold by the widened tier, never above the current one."""
    tier = 0
    out = []
    for d in distances:
        d = math.inf if d is None else d
        raw = tier_for(d, stop_m, slow_m)
        widened = tier_for(d, stop_m + hysteresis_m, slow_m + hysteresis_m)
        tier = max(raw, min(tier, widened))
        out.append(TIERS[tier])
    return out


def approach_statuses(ranges, spacing_m: float = BIN_M, tolerance_m: float = 0.0) -> list[str | None]:
    """Running approach status after each scan; None marks an empty scan's range.

    The last three occupied ranges must each move by more than one bin in
    the same direction for Approaching (nearer) or Receding (farther);
    otherwise an occupied history is Static. An entry is None (ambiguous)
    when a step of the tail lies within tolerance_m of the one-bin limit,
    where a one-bin localization error could flip the verdict. A target
    that did not move is not ambiguous: the same range gives the same
    detection.
    """
    seen: list[float] = []
    out: list[str | None] = []
    for r in ranges:
        if r is not None:
            seen.append(r)
        if not seen:
            out.append("Empty")
            continue
        status = "Static"
        if len(seen) >= 3:
            tail = seen[-3:]
            deltas = [b - a for a, b in zip(tail, tail[1:])]
            if any(d != 0 and abs(abs(d) - spacing_m) <= tolerance_m for d in deltas):
                out.append(None)
                continue
            if all(d < -spacing_m for d in deltas):
                status = "Approaching"
            elif all(d > spacing_m for d in deltas):
                status = "Receding"
        out.append(status)
    return out


def geometric_bands(labeled) -> tuple[float, float]:
    """Band edges at the geometric mean of neighbouring class extremes.

    labeled holds (rrm, label) with labels Infrastructure/Human/Metallic,
    all three present.
    """
    groups: dict[str, list[float]] = {}
    for value, label in labeled:
        groups.setdefault(label.title(), []).append(value)
    infra = math.sqrt(max(groups["Infrastructure"]) * min(groups["Human"]))
    human = math.sqrt(max(groups["Human"]) * min(groups["Metallic"]))
    return infra, human


# ---------------------------------------------------------------------------
# Checks


def check_within_bin(what: str, detected: float | None, truth: float) -> None:
    if detected is None or abs(detected - truth) > BIN_M:
        raise CheckFailed(f"{what}: detected {detected} m, true {truth} m, one bin is {BIN_M:.4f} m")


def check_close(what: str, got: np.ndarray, want: np.ndarray, rel: float = 1e-9) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    scale = float(np.max(np.abs(want))) or 1.0
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= rel:
        raise CheckFailed(f"{what}: relative error {err:.3g} > {rel:g}")


def check_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def check_sequence(what: str, got, want) -> None:
    """Element-wise equality; a None in want accepts any value at that position."""
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} entries, want {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if w is not None and g != w:
            raise CheckFailed(f"{what}[{i}]: got {g!r}, want {w!r}")


def check_bands(what: str, got: tuple[float, float], want: tuple[float, float]) -> None:
    for name, g, w in zip(("infrastructure_max", "human_max"), got, want):
        if not math.isclose(g, w, rel_tol=1e-8):
            raise CheckFailed(f"{what}: {name} {g!r}, want {w!r}")
