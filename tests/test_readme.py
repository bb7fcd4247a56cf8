"""The README's examples still match the package.

The scene-document example parses and uses only keys the parser reads:
the parser ignores keys it does not know, so a key whose field is deleted
would otherwise stay in the example unnoticed. The library quickstart
runs and prints what its comment says, and the scan-loop example prints
the running approach status of each step.
"""

import dataclasses
import json
import re
from pathlib import Path

from wallsense import (
    ChirpConfig,
    ClassBands,
    Material,
    MonitorZone,
    Scatterer,
    Scene,
    TierConfig,
    Wall,
    parse_scenario,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _example() -> dict:
    return json.loads(_block("Scene documents", "json"))


def _fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_scene_document_example_names_only_record_fields():
    doc = _example()
    parse_scenario(doc)

    scene = doc["scene"]
    reflectors = [
        (f"scene.scatterers[{i}]", node, Scatterer) for i, node in enumerate(scene["scatterers"])
    ]
    reflectors += [(f"scene.walls[{i}]", node, Wall) for i, node in enumerate(scene["walls"])]
    reflectors += [
        (f"scenario.steps[{i}].mutations[{j}].scatterer", m["scatterer"], Scatterer)
        for i, step in enumerate(doc["scenario"]["steps"])
        for j, m in enumerate(step["mutations"])
        if "scatterer" in m
    ]
    records = [
        ("chirp", doc["chirp"], _fields(ChirpConfig)),
        ("scene", scene, _fields(Scene)),
        ("monitor.zone", doc["monitor"]["zone"], _fields(MonitorZone)),
        ("safety.tiers", doc["safety"]["tiers"], _fields(TierConfig)),
        ("classifier.bands", doc["classifier"]["bands"], _fields(ClassBands)),
        ("detector", doc["detector"], {"min_rsa", "min_prominence"}),
        ("baseline", doc["baseline"], {"feature_range_hint"}),
    ]
    records += [(path, node, _fields(cls)) for path, node, cls in reflectors]
    records += [
        (f"{path}.material", node["material"], _fields(Material))
        for path, node, _ in reflectors
        if isinstance(node.get("material"), dict)
    ]
    # An empty section would pass trivially.
    assert all(node for _, node, _ in records)
    stray = [
        f"{path}.{key}" for path, node, allowed in records for key in node if key not in allowed
    ]
    assert stray == []


def test_library_quickstart_prints_human(capsys):
    exec(compile(_block("Library quickstart", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == "Human\n"


def test_scan_loop_example_prints_each_step_as_it_comes(capsys):
    exec(compile(_block("Design notes", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == (
        "0 True Static\n1 True Static\n2 True Approaching\n3 True Approaching\n"
    )
