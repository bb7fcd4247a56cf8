"""Dechirped FMCW beat-signal synthesis.

After mixing the received chirp with the transmitted one, each reflector
collapses to a constant tone whose frequency is proportional to its range.
Synthesis therefore reduces to summing cosines plus seeded Gaussian noise,
which keeps every run bit-identical for identical inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .scene import Scene, _amplitude, validate_scene

SPEED_OF_LIGHT_M_S = 299_792_458.0

MIN_SAMPLES = 16
# 512 KiB per float64 array. At the default 2 GHz sweep 2**16 samples
# reach 2.4 km, where the default 1000 reach 37 m.
MAX_SAMPLES = 2**16

# A static room scanned again and again repeats its leading reflectors bit
# for bit, so synthesize_beat keeps the last scan's running sums, up to
# this many bytes: 131 sums at the default 1000 samples, two at MAX_SAMPLES.
_MEMO_BYTES = 2**20


@dataclass(frozen=True)
class ChirpConfig:
    """Sawtooth FMCW sweep parameters; every field must be positive.

    The sample count is fixed by sweep_time_s * sample_rate_hz; one sweep
    is one scan. The defaults are a K-band stand-in: a 2 GHz sweep over
    1 ms at 1 MS/s.
    """

    bandwidth_hz: float = 2e9
    sweep_time_s: float = 1e-3
    sample_rate_hz: float = 1e6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:  # NaN included
                raise ValueError(f"chirp.{f.name}: expected a positive number, got {value!r}")

    @property
    def n_samples(self) -> int:
        return int(round(self.sweep_time_s * self.sample_rate_hz))

    @property
    def max_unambiguous_range_m(self) -> float:
        # Beat frequency must stay below Nyquist (sample_rate / 2).
        return (
            SPEED_OF_LIGHT_M_S
            * self.sample_rate_hz
            * self.sweep_time_s
            / (4.0 * self.bandwidth_hz)
        )


DEFAULT_CHIRP = ChirpConfig()


@dataclass(frozen=True)
class BeatSignal:
    """One scan of dechirped samples tied to the chirp that produced it."""

    samples: np.ndarray
    chirp: ChirpConfig

    def __post_init__(self) -> None:
        if len(self.samples) != self.chirp.n_samples:
            raise ValueError(
                f"sample count {len(self.samples)} does not match chirp n_samples "
                f"{self.chirp.n_samples}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("beat signal contains non-finite samples")
        self.samples.flags.writeable = False


def beat_frequency(range_m: float, chirp: ChirpConfig) -> float:
    """Beat tone frequency for a reflector at range_m: 2*B*R / (c*T)."""
    if not range_m >= 0:  # NaN included
        raise ValueError(f"range_m must be >= 0, got {range_m}")
    return 2.0 * chirp.bandwidth_hz * range_m / (SPEED_OF_LIGHT_M_S * chirp.sweep_time_s)


def range_resolution(chirp: ChirpConfig) -> float:
    """Smallest resolvable range separation: c / (2*B)."""
    return SPEED_OF_LIGHT_M_S / (2.0 * chirp.bandwidth_hz)


def reflector_phase(phase_seed: int, reflector_id: str) -> float:
    """Deterministic per-reflector phase in [0, 2*pi).

    Hash based rather than RNG based so a reflector keeps its phase no
    matter how many other reflectors the scene contains.
    """
    digest = hashlib.sha256(f"{phase_seed}:{reflector_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64 * 2.0 * math.pi


# (root, reflectors, sums) of the last call: sums[i] is the read-only sum
# of the terms of reflectors[:i + 1].
_last: tuple = (None, (), ())


def synthesize_beat(scene: Scene, chirp: ChirpConfig = DEFAULT_CHIRP) -> BeatSignal:
    """Render a scene into one scan of beat samples.

    Args:
        scene: validated reflector arrangement.
        chirp: sweep parameters; defaults to DEFAULT_CHIRP.

    Returns:
        BeatSignal whose samples are the sum over reflectors of
        amplitude * cos(2*pi*f_beat*t + phase) plus seeded Gaussian noise
        scaled by scene.noise_amplitude.

    Identical (scene, chirp) inputs give bit-identical output arrays.
    """
    global _last
    validate_scene(scene)
    # Bound the sample count before rounding it: an overflowing or huge
    # product must fail here, not in round() or the allocation.
    product = chirp.sweep_time_s * chirp.sample_rate_hz
    if not product <= MAX_SAMPLES:
        raise ValueError(
            f"chirp.sweep_time_s * chirp.sample_rate_hz = {product:.6g} samples; "
            f"at most {MAX_SAMPLES} allowed"
        )
    if chirp.n_samples < MIN_SAMPLES:
        raise ValueError(
            f"chirp.sweep_time_s * chirp.sample_rate_hz = {product:.6g} samples; "
            f"need at least {MIN_SAMPLES}"
        )
    if scene.max_range_m > chirp.max_unambiguous_range_m:
        raise ValueError(
            f"scene.max_range_m {scene.max_range_m} exceeds the maximum unambiguous "
            f"range {chirp.max_unambiguous_range_m:.6g} m of chirp.bandwidth_hz "
            f"{chirp.bandwidth_hz:.6g} over {chirp.n_samples} samples"
        )
    resolution = range_resolution(chirp)
    if not resolution < scene.max_range_m:
        raise ValueError(
            f"chirp.bandwidth_hz {chirp.bandwidth_hz:.6g} gives a range resolution of "
            f"{resolution:.6g} m, not below scene.max_range_m {scene.max_range_m}"
        )

    n = chirp.n_samples
    t = np.arange(n) / chirp.sample_rate_hz
    seed = scene.effective_phase_seed
    refs = scene.reflectors()
    # Walls come first and are sorted, and an amplitude reads only nearer
    # walls, so under the same root a reflector prefix equal to the last
    # scan's has the same terms; a prefix reaching a scatterer means equal
    # walls. Adding the suffix terms one at a time in order then gives the
    # loop's bits. The type is in the root because True and 1 are equal but
    # hash to different phases.
    root = (type(seed), seed, chirp)
    last_root, last_refs, sums = _last
    k = 0
    if last_root == root:
        for a, b in zip(last_refs, refs[: len(sums)]):
            if not (a is b or a == b):
                break
            k += 1
    sums = list(sums[:k])
    out = sums[-1].copy() if sums else np.zeros(n)
    for ref in refs[k:]:
        w = 2.0 * np.pi * beat_frequency(ref.range_m, chirp)
        out += _amplitude(scene, ref) * np.cos(w * t + reflector_phase(seed, ref.id))
        if (len(sums) + 1) * out.nbytes <= _MEMO_BYTES:
            sums.append(out.copy())
            sums[-1].flags.writeable = False
    # One read and one rebinding of _last per call, and stored sums are
    # never written: a racing thread can lose an update, never see half of one.
    _last = (root, refs, tuple(sums))
    if scene.noise_amplitude > 0:
        rng = np.random.default_rng(scene.rng_seed)
        out += scene.noise_amplitude * rng.standard_normal(n)
    return BeatSignal(out, chirp)
