"""Scene description for the radar simulator: materials, scatterers, walls.

A scene is a 1-D arrangement of reflectors along the radar boresight.
Walls attenuate everything behind them; scatterers do not. The amplitude
model is deliberately coarse (single reflectivity/transmissivity pair per
material, inverse-square spreading) so that runs are cheap and exactly
reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

# Range at which a reflector's return equals its bare reflectivity.
REFERENCE_RANGE_M = 1.0


@dataclass(frozen=True)
class Material:
    """Surface description used by the amplitude model.

    reflectivity: amplitude fraction reflected back, >= 0.
    transmissivity: amplitude fraction passed through, in [0, 1].
        0 blocks everything behind the surface, 1 is transparent.
    """

    name: str
    reflectivity: float
    transmissivity: float


PLASTERBOARD = Material("plasterboard", reflectivity=0.05, transmissivity=0.7)
HUMAN_BODY = Material("human", reflectivity=0.08, transmissivity=0.3)
SHEET_METAL = Material("metal_sheet", reflectivity=0.9, transmissivity=0.0)
LAB_WALL = Material("lab_wall", reflectivity=0.05, transmissivity=0.0)

MATERIAL_PRESETS = {
    m.name: m for m in (PLASTERBOARD, HUMAN_BODY, SHEET_METAL, LAB_WALL)
}


@dataclass(frozen=True)
class Scatterer:
    """A discrete point reflector at a fixed range."""

    id: str
    range_m: float
    material: Material


@dataclass(frozen=True)
class Wall:
    """A planar obstruction; attenuates every reflector behind it."""

    id: str
    range_m: float
    material: Material


@dataclass(frozen=True)
class Scene:
    """Immutable reflector arrangement plus noise/seed configuration.

    rng_seed drives the additive noise stream. phase_seed drives the
    per-reflector phases; it defaults to rng_seed when left None. Keeping
    phase_seed fixed while varying rng_seed models a static room observed
    through independent noise realizations, which is what repeated scans
    of an unchanged geometry look like.
    """

    scatterers: tuple[Scatterer, ...] = ()
    walls: tuple[Wall, ...] = ()
    max_range_m: float = 8.0
    noise_amplitude: float = 0.0
    rng_seed: int = 0
    phase_seed: int | None = None

    @property
    def effective_phase_seed(self) -> int:
        return self.rng_seed if self.phase_seed is None else self.phase_seed

    def reflectors(self) -> tuple[Wall | Scatterer, ...]:
        """All reflectors in deterministic order: walls first, then scatterers."""
        return (*self.walls, *self.scatterers)


def _check_material(owner: str, material: Material, out: list[str]) -> None:
    # Each check is written so that NaN fails it.
    if not 0 <= material.reflectivity < math.inf:
        out.append(
            f"{owner}: material.reflectivity must be finite and >= 0, got {material.reflectivity}"
        )
    if not 0.0 <= material.transmissivity <= 1.0:
        out.append(
            f"{owner}: material.transmissivity must be in [0, 1], got {material.transmissivity}"
        )


def _check_range(owner: str, range_m: float, max_range_m: float, out: list[str]) -> None:
    if not range_m > 0:
        out.append(f"{owner}: range_m must be > 0, got {range_m}")
    elif not range_m < max_range_m:
        out.append(f"{owner} at {range_m} m is out of bounds (max_range_m {max_range_m})")
    else:
        # The spreading gain _amplitude applies; below about 7.5e-155 m it overflows.
        try:
            gain = (REFERENCE_RANGE_M / range_m) ** 2
        except OverflowError:
            gain = math.inf
        if not math.isfinite(gain):
            out.append(f"{owner}: range_m {range_m} is too small, its spreading gain overflows")


def validate_scene(scene: Scene) -> None:
    """Check ranges, ordering, and material coefficients.

    Raises one ValueError listing every problem, joined by "; ", so callers
    see them all at once. NaN fails every numeric check.
    """
    v: list[str] = []
    if not scene.max_range_m > 0:
        v.append(f"scene.max_range_m must be > 0, got {scene.max_range_m}")
    if not 0 <= scene.noise_amplitude < math.inf:
        v.append(f"scene.noise_amplitude must be finite and >= 0, got {scene.noise_amplitude}")
    if not scene.rng_seed >= 0:
        v.append(f"scene.rng_seed must be >= 0, got {scene.rng_seed}")

    for kind, reflectors in (("scatterer", scene.scatterers), ("wall", scene.walls)):
        for r in reflectors:
            owner = f"{kind} '{r.id}'"
            _check_range(owner, r.range_m, scene.max_range_m, v)
            _check_material(owner, r.material, v)

    ranges = [w.range_m for w in scene.walls]
    if ranges != sorted(ranges):
        v.append("walls not sorted by range ascending")
    seen: dict[float, str] = {}
    for w in scene.walls:
        if w.range_m in seen:
            v.append(f"duplicate wall range at {w.range_m} m ('{seen[w.range_m]}', '{w.id}')")
        else:
            seen[w.range_m] = w.id

    counts = Counter(r.id for r in scene.reflectors())
    for rid in sorted(i for i, k in counts.items() if k > 1):
        v.append(f"duplicate reflector id '{rid}'")

    if v:
        raise ValueError("; ".join(v))


def _amplitude(scene: Scene, ref: Scatterer | Wall) -> float:
    """Return the amplitude of reflector ref of scene as seen by the radar.

    reflectivity, attenuated by the squared transmissivity of every wall
    strictly nearer than ref (two-way transit), scaled by inverse-square
    spreading relative to REFERENCE_RANGE_M. The product is taken in this
    order, wall by wall, so that results are bit-stable.
    """
    amp = ref.material.reflectivity
    for wall in scene.walls:
        if wall.range_m < ref.range_m:
            amp *= wall.material.transmissivity**2
    amp *= (REFERENCE_RANGE_M / ref.range_m) ** 2
    return amp
