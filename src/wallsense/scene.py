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


def _owner(ref: _Reflector) -> str:
    return f"{type(ref).__name__.lower()} '{ref.id}'"


@dataclass(frozen=True)
class _Reflector:
    """A reflector that checks its own range and material when built.

    A range below a scene's max_range_m is the scene's check. Each check is
    written so that NaN fails it.
    """

    id: str
    range_m: float
    material: Material

    def __post_init__(self) -> None:
        v: list[str] = []
        if not self.range_m > 0:
            v.append(f"range_m must be > 0, got {self.range_m}")
        else:
            # _amplitude's spreading gain; below about 7.5e-155 m it overflows
            # (gain * gain rounds as gain**2 does, but gives inf where ** raises).
            gain = REFERENCE_RANGE_M / self.range_m
            if not gain * gain < math.inf:
                v.append(f"range_m {self.range_m} is too small, its spreading gain overflows")
        m = self.material
        if not 0 <= m.reflectivity < math.inf:
            v.append(f"material.reflectivity must be finite and >= 0, got {m.reflectivity}")
        if not 0.0 <= m.transmissivity <= 1.0:
            v.append(f"material.transmissivity must be in [0, 1], got {m.transmissivity}")
        if v:
            raise ValueError("; ".join(f"{_owner(self)}: {problem}" for problem in v))


@dataclass(frozen=True)
class Scatterer(_Reflector):
    """A discrete point reflector at a fixed range."""


@dataclass(frozen=True)
class Wall(_Reflector):
    """A planar obstruction; attenuates every reflector behind it."""


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

    def __post_init__(self) -> None:
        """Check the scalars and the rules that span reflectors.

        Raises one ValueError listing every problem, joined by "; ". NaN
        fails every numeric check. run_scenario builds one scene per step,
        so a valid scene builds no message.
        """
        v: list[str] = []
        if not self.max_range_m > 0:
            v.append(f"scene.max_range_m must be > 0, got {self.max_range_m}")
        if not 0 <= self.noise_amplitude < math.inf:
            v.append(f"scene.noise_amplitude must be finite and >= 0, got {self.noise_amplitude}")
        if not self.rng_seed >= 0:
            v.append(f"scene.rng_seed must be >= 0, got {self.rng_seed}")
        v += [
            f"{_owner(r)} at {r.range_m} m is out of bounds (max_range_m {self.max_range_m})"
            for r in (*self.scatterers, *self.walls)
            if not r.range_m < self.max_range_m
        ]
        ranges = [w.range_m for w in self.walls]
        if ranges != sorted(ranges):
            v.append("walls not sorted by range ascending")
        seen: dict[float, str] = {}
        for w in self.walls:
            if w.range_m in seen:
                first = seen[w.range_m]
                v.append(f"duplicate wall range at {w.range_m} m ('{first}', '{w.id}')")
            else:
                seen[w.range_m] = w.id
        refs = self.reflectors()
        if len({r.id for r in refs}) < len(refs):
            counts = Counter(r.id for r in refs)
            v += [f"duplicate reflector id '{i}'" for i in sorted(counts) if counts[i] > 1]
        if v:
            raise ValueError("; ".join(v))

    @property
    def effective_phase_seed(self) -> int:
        return self.rng_seed if self.phase_seed is None else self.phase_seed

    def reflectors(self) -> tuple[Wall | Scatterer, ...]:
        """All reflectors in deterministic order: walls first, then scatterers."""
        return (*self.walls, *self.scatterers)


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
