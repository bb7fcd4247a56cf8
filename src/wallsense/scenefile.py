"""JSON scene/scenario documents and the small CSV formats.

One document format covers both single scenes and scenarios; sections the
caller does not need are simply absent. Parse errors name the offending
field with a JSON-path-like prefix so CLI diagnostics stay actionable.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .classify import ClassBands, DEFAULT_BANDS, TargetClass
from .scenario import (
    AddScatterer,
    MoveScatterer,
    Mutation,
    RemoveScatterer,
    Scenario,
    ScenarioStep,
)
from .scene import (
    MATERIAL_PRESETS,
    Material,
    Scatterer,
    Scene,
    TargetKind,
    Wall,
)
from .safety import TierConfig
from .synth import DEFAULT_CHIRP, ChirpConfig
from .throughwall import MonitorZone


@dataclass(frozen=True)
class SceneConfig:
    """Everything a single-scene command can pull from one document."""

    scene: Scene
    chirp: ChirpConfig
    baseline_hint_m: float | None
    bands: ClassBands | None
    zone: MonitorZone | None
    tier_config: TierConfig
    detect_min_rsa: float
    detect_min_prominence: float


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ValueError(f"{path}: expected an object")
    return node


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ValueError(f"{path}: expected an array")
    return node


def _section(doc: dict, *keys: str) -> dict | None:
    """The object at doc[keys[0]][keys[1]]..., or None if a key is absent.

    Only an absent key means "not configured"; any other value that is not
    an object, null and [] included, is an error naming its path.
    """
    node = doc
    for depth, key in enumerate(keys):
        if key not in node:
            return None
        node = _expect_mapping(node[key], ".".join(keys[: depth + 1]))
    return node


def _number(node: dict, key: str, path: str, default=None) -> float:
    if key not in node:
        if default is not None:
            return default
        raise ValueError(f"{path}.{key}: required number missing")
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}.{key}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, ±Infinity, or an int beyond any float
        raise ValueError(f"{path}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _integer(node: dict, key: str, path: str, default: int | None) -> int | None:
    value = node.get(key, default)
    if value is None and default is None:  # an optional field, unset or null
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _string(node: dict, key: str, path: str, default=None) -> str:
    if key not in node:
        if default is not None:
            return default
        raise ValueError(f"{path}.{key}: required string missing")
    value = node[key]
    if not isinstance(value, str):
        raise ValueError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _kind(node: dict, key: str, path: str, default: TargetKind) -> TargetKind:
    name = _string(node, key, path, default.value)
    try:
        return TargetKind(name)
    except ValueError:
        raise ValueError(f"{path}.{key}: unknown kind '{name}'") from None


_READERS = {"float": _number, "int": _integer, "int | None": _integer,
            "str": _string, "TargetKind": _kind}


def _record(cls, node: dict, path: str, **given):
    """Build dataclass cls from the keys of node named like its fields.

    Fields not in given are read in declaration order by the reader their
    annotation names; an absent key takes the field's own default.
    """
    values = dict(given)
    for f in fields(cls):
        if f.name not in given:
            default = None if f.default is MISSING else f.default
            values[f.name] = _READERS[f.type](node, f.name, path, default)
    return cls(**values)


def _material(node, path: str) -> Material:
    if isinstance(node, str):
        if node not in MATERIAL_PRESETS:
            raise ValueError(
                f"{path}: unknown material preset '{node}'; "
                f"known: {', '.join(sorted(MATERIAL_PRESETS))}"
            )
        return MATERIAL_PRESETS[node]
    return _record(Material, _expect_mapping(node, path), path)


def _reflector(cls, node, path: str, default_material: str):
    """A Scatterer or Wall; an absent material is the default_material preset."""
    m = _expect_mapping(node, path)
    material = _material(m.get("material", default_material), f"{path}.material")
    return _record(cls, m, path, material=material)


def _chirp(doc: dict) -> ChirpConfig:
    node = _section(doc, "chirp")
    return DEFAULT_CHIRP if node is None else _record(ChirpConfig, node, "chirp")


def _scene(doc: dict) -> Scene:
    node = _expect_mapping(doc.get("scene", {}), "scene")
    scatterers = tuple(
        _reflector(Scatterer, s, f"scene.scatterers[{i}]", "human")
        for i, s in enumerate(_expect_list(node.get("scatterers", []), "scene.scatterers"))
    )
    walls = tuple(
        _reflector(Wall, w, f"scene.walls[{i}]", "plasterboard")
        for i, w in enumerate(_expect_list(node.get("walls", []), "scene.walls"))
    )
    return _record(Scene, node, "scene", scatterers=scatterers, walls=walls)


def _bands(doc: dict) -> ClassBands | None:
    node = _section(doc, "classifier", "bands")
    return None if node is None else bands_from_mapping(node, "classifier.bands")


def _zone(doc: dict) -> MonitorZone | None:
    z = _section(doc, "monitor", "zone")
    return None if z is None else _record(MonitorZone, z, "monitor.zone")


def _tiers(doc: dict) -> TierConfig:
    return _record(TierConfig, _section(doc, "safety", "tiers") or {}, "safety.tiers")


def _baseline_hint(doc: dict) -> float | None:
    node = _section(doc, "baseline")
    if node is None or "feature_range_hint" not in node:
        return None
    return _number(node, "feature_range_hint", "baseline")


def _threshold(detector: dict, key: str, default: float) -> float:
    value = _number(detector, key, "detector", default)
    if value < 0:
        raise ValueError(f"detector.{key}: expected a number >= 0, got {detector[key]!r}")
    return value


def parse_scene_config(doc: dict) -> SceneConfig:
    node = _expect_mapping(doc.get("detector", {}), "detector")
    return SceneConfig(
        scene=_scene(doc),
        chirp=_chirp(doc),
        baseline_hint_m=_baseline_hint(doc),
        bands=_bands(doc),
        zone=_zone(doc),
        tier_config=_tiers(doc),
        detect_min_rsa=_threshold(node, "min_rsa", Scenario.detect_min_rsa),
        detect_min_prominence=_threshold(node, "min_prominence", Scenario.detect_min_prominence),
    )


def load_scene_config(path: str | Path) -> SceneConfig:
    with open(path) as fh:
        doc = json.load(fh)
    return parse_scene_config(_expect_mapping(doc, str(path)))


def scenario_from_config(
    cfg: SceneConfig, name: str, steps: tuple[ScenarioStep, ...], pipeline: tuple[str, ...]
) -> Scenario:
    """A scenario over cfg's scene that takes every other setting from cfg."""
    return Scenario(
        name=name,
        base_scene=cfg.scene,
        steps=steps,
        pipeline=pipeline,
        chirp=cfg.chirp,
        baseline_hint_m=cfg.baseline_hint_m,
        bands=cfg.bands if cfg.bands is not None else DEFAULT_BANDS,
        zone=cfg.zone,
        tier_config=cfg.tier_config,
        detect_min_rsa=cfg.detect_min_rsa,
        detect_min_prominence=cfg.detect_min_prominence,
    )


def _mutation(node, path: str) -> Mutation:
    m = _expect_mapping(node, path)
    op = _string(m, "op", path)
    if op == "add":
        return AddScatterer(_reflector(Scatterer, m.get("scatterer"), f"{path}.scatterer", "human"))
    if op == "move":
        return MoveScatterer(_string(m, "id", path), _number(m, "range_m", path))
    if op == "remove":
        return RemoveScatterer(_string(m, "id", path))
    raise ValueError(f"{path}.op: unknown mutation op '{op}'")


def parse_scenario(doc: dict) -> Scenario:
    cfg = parse_scene_config(doc)
    node = _expect_mapping(doc.get("scenario"), "scenario")
    steps = []
    for i, raw in enumerate(_expect_list(node.get("steps", []), "scenario.steps")):
        step = _expect_mapping(raw, f"scenario.steps[{i}]")
        mutations = tuple(
            _mutation(mn, f"scenario.steps[{i}].mutations[{j}]")
            for j, mn in enumerate(
                _expect_list(step.get("mutations", []), f"scenario.steps[{i}].mutations")
            )
        )
        steps.append(
            ScenarioStep(_string(step, "name", f"scenario.steps[{i}]", f"step_{i}"), mutations)
        )
    raw_pipeline = _expect_list(node.get("pipeline", []), "scenario.pipeline")
    for i, stage in enumerate(raw_pipeline):
        if not isinstance(stage, str):
            raise ValueError(f"scenario.pipeline[{i}]: expected a string, got {stage!r}")
    return scenario_from_config(
        cfg, _string(node, "name", "scenario"), tuple(steps), tuple(raw_pipeline)
    )


def load_scenario_file(path: str | Path) -> Scenario:
    with open(path) as fh:
        doc = json.load(fh)
    return parse_scenario(_expect_mapping(doc, str(path)))


# ---------------------------------------------------------------------------
# Bands JSON and labeled-rrm CSV


def bands_from_mapping(node: dict, path: str = "bands") -> ClassBands:
    infrastructure_max = _number(node, "infrastructure_max", path)
    raw_human = node.get("human_max")
    human_max = math.inf if raw_human is None else _number(node, "human_max", path)
    return ClassBands(infrastructure_max, human_max)


def bands_to_json(bands: ClassBands) -> str:
    human = None if math.isinf(bands.human_max) else bands.human_max
    return json.dumps(
        {"infrastructure_max": bands.infrastructure_max, "human_max": human},
        indent=2,
        sort_keys=True,
    ) + "\n"


def load_bands(path: str | Path) -> ClassBands:
    with open(path) as fh:
        doc = json.load(fh)
    return bands_from_mapping(_expect_mapping(doc, str(path)), str(path))


def parse_labeled_rrm_csv(text: str) -> list[tuple[float, TargetClass]]:
    """Parse `rrm,label` rows; labels match TargetClass names, any case."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].lower().replace(" ", "") != "rrm,label":
        raise ValueError("labeled rrm CSV must start with header 'rrm,label'")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'rrm,label', got {line!r}")
        try:
            value = float(parts[0])
        except ValueError:
            raise ValueError(f"line {i}: rrm is not a number: {parts[0]!r}") from None
        try:
            cls = TargetClass[parts[1].upper()]
        except KeyError:
            raise ValueError(
                f"line {i}: unknown label {parts[1]!r}; expected one of "
                f"{', '.join(c.name.title() for c in TargetClass)}"
            ) from None
        out.append((value, cls))
    return out
