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
    Wall,
)
from .safety import TierConfig
from .synth import DEFAULT_CHIRP, ChirpConfig
from .throughwall import MonitorZone


@dataclass(frozen=True)
class SceneConfig:
    """Everything a single-scene command can pull from one document.

    Every field but scene is the Scenario setting of the same name.
    """

    scene: Scene
    chirp: ChirpConfig
    baseline_hint_m: float | None
    bands: ClassBands
    zone: MonitorZone | None
    tier_config: TierConfig
    detect_min_rsa: float
    detect_min_prominence: float


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ValueError(f"{path}: expected an object")
    return node


def _load(path: str | Path) -> dict:
    """The JSON object in the file at path."""
    with open(path) as fh:
        return _expect_mapping(json.load(fh), str(path))


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


_READERS = {"float": _number, "int": _integer, "int | None": _integer, "str": _string}


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


def _threshold(node: dict, key: str, path: str, default: float | None = None) -> float:
    value = _number(node, key, path, default)
    if value < 0:
        raise ValueError(f"{path}.{key}: expected a number >= 0, got {node[key]!r}")
    return value


def parse_scene_config(doc: dict) -> SceneConfig:
    # The read order below fixes which error a bad document reports.
    detector = _section(doc, "detector") or {}
    node = _section(doc, "scene") or {}
    scatterers = tuple(
        _reflector(Scatterer, s, f"scene.scatterers[{i}]", "human")
        for i, s in enumerate(_expect_list(node.get("scatterers", []), "scene.scatterers"))
    )
    walls = tuple(
        _reflector(Wall, w, f"scene.walls[{i}]", "plasterboard")
        for i, w in enumerate(_expect_list(node.get("walls", []), "scene.walls"))
    )
    scene = _record(Scene, node, "scene", scatterers=scatterers, walls=walls)
    node = _section(doc, "chirp")
    chirp = DEFAULT_CHIRP if node is None else _record(ChirpConfig, node, "chirp")
    node = _section(doc, "baseline") or {}
    hint = None
    if "feature_range_hint" in node:
        hint = _threshold(node, "feature_range_hint", "baseline")
    node = _section(doc, "classifier", "bands")
    bands = DEFAULT_BANDS if node is None else bands_from_mapping(node, "classifier.bands")
    node = _section(doc, "monitor", "zone")
    return SceneConfig(
        scene=scene,
        chirp=chirp,
        baseline_hint_m=hint,
        bands=bands,
        zone=None if node is None else _record(MonitorZone, node, "monitor.zone"),
        tier_config=_record(TierConfig, _section(doc, "safety", "tiers") or {}, "safety.tiers"),
        detect_min_rsa=_threshold(detector, "min_rsa", "detector", Scenario.detect_min_rsa),
        detect_min_prominence=_threshold(
            detector, "min_prominence", "detector", Scenario.detect_min_prominence
        ),
    )


def load_scene_config(path: str | Path) -> SceneConfig:
    return parse_scene_config(_load(path))


def scenario_from_config(
    cfg: SceneConfig, name: str, steps: tuple[ScenarioStep, ...], pipeline: tuple[str, ...]
) -> Scenario:
    """A scenario over cfg's scene that takes every other setting from cfg."""
    settings = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "scene"}
    return Scenario(name, cfg.scene, steps, pipeline, **settings)


def _mutation(node, path: str) -> Mutation:
    m = _expect_mapping(node, path)
    op = _string(m, "op", path)
    if op == "add":
        path += ".scatterer"
        try:
            return AddScatterer(_reflector(Scatterer, m.get("scatterer"), path, "human"))
        except ValueError as exc:
            if str(exc).startswith(path):  # a parse error names its key already
                raise
            raise ValueError(f"{path}: {exc}") from None
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
    return parse_scenario(_load(path))


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
    return bands_from_mapping(_load(path), str(path))


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
        if not math.isfinite(value):
            raise ValueError(f"line {i}: rrm must be a finite number, got {parts[0]!r}")
        try:
            cls = TargetClass[parts[1].upper()]
        except KeyError:
            raise ValueError(
                f"line {i}: unknown label {parts[1]!r}; expected one of "
                f"{', '.join(c.name.title() for c in TargetClass)}"
            ) from None
        out.append((value, cls))
    return out
