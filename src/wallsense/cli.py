"""Command line front end.

Exit codes: 0 success, 1 validation error, 2 I/O error. Diagnostics go to
standard error; data goes to files or standard output.
"""

from __future__ import annotations

import os

# wallsense makes no BLAS call, so the CLI spares each start the OpenBLAS
# thread pool that numpy would spawn at import. A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import __version__
from .classify import calibrate_bands
from .profile import Window, profile_to_csv, range_profile
from .scenario import (
    BUILTIN_SCENARIOS,
    ScenarioStep,
    _empty_room_baseline,
    _write,
    builtin_scenario,
    classification_to_csv,
    monitor_to_csv,
    run_scenario,
    scan_steps,
    write_run_result,
)
from .scenefile import (
    SceneConfig,
    bands_to_json,
    load_bands,
    load_scenario_file,
    load_scene_config,
    parse_labeled_rrm_csv,
    scenario_from_config,
)
from .synth import synthesize_beat
from .throughwall import MonitorZone


def _parse_zone_flag(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--zone expects 'near,far', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"--zone expects two numbers, got {text!r}") from None


def _load_config(path: str, seed: int | None) -> SceneConfig:
    cfg = load_scene_config(path)
    if seed is not None:
        cfg = replace(cfg, scene=replace(cfg.scene, rng_seed=seed))
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.scene, args.seed)
    window = Window(args.window)
    path = _write(args.out, "profile.csv", profile_to_csv(
        range_profile(synthesize_beat(cfg.scene, cfg.chirp), window)
    ))
    print(path)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.scene, args.seed)
    base_cfg = _load_config(args.baseline, None)
    if base_cfg.chirp != cfg.chirp:
        raise ValueError("scene and baseline chirp configurations differ")
    baseline = _empty_room_baseline(base_cfg.scene, base_cfg.chirp, base_cfg.baseline_hint_m)
    scenario = scenario_from_config(
        cfg, "classify", (ScenarioStep(args.scene),), ("profile", "rrm", "classify")
    )
    if args.bands:
        scenario = replace(scenario, bands=load_bands(args.bands))
    steps = scan_steps(scenario, baseline, [(cfg.scene, {})])
    print(_write(args.out, "classification.csv", classification_to_csv(steps)))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    base_cfg = _load_config(args.baseline, None)
    zone = base_cfg.zone
    if args.zone:
        near, far = _parse_zone_flag(args.zone)
        zone = replace(zone, near_m=near, far_m=far) if zone else MonitorZone(near, far)
    if zone is None:
        raise ValueError("no monitor zone: pass --zone near,far or a monitor.zone section")
    base_cfg = replace(base_cfg, zone=zone)
    baseline = _empty_room_baseline(base_cfg.scene, base_cfg.chirp, base_cfg.baseline_hint_m)

    def scan(path: str):
        cfg = _load_config(path, args.seed)
        if cfg.chirp != base_cfg.chirp:
            raise ValueError(f"{path}: chirp differs from the baseline chirp")
        return cfg.scene, {}

    steps = tuple(ScenarioStep(path) for path in args.scene)
    scenario = scenario_from_config(base_cfg, "monitor", steps, ("profile", "throughwall"))
    # map() loads each scan only when the loop reaches it.
    scans = map(scan, args.scene)
    print(_write(args.out, "monitor.csv", monitor_to_csv(scan_steps(scenario, baseline, scans))))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if bool(args.name) == bool(args.scene):
        raise ValueError("pass exactly one of --name or --scene")
    scenario = builtin_scenario(args.name) if args.name else load_scenario_file(args.scene)
    if args.seed is not None:
        scenario = replace(
            scenario, base_scene=replace(scenario.base_scene, rng_seed=args.seed)
        )
    result = run_scenario(scenario)
    for path in write_run_result(result, args.out):
        print(path)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.input:
        text = Path(args.input).read_text()
    else:
        text = (
            resources.files("wallsense") / "data" / "default_rrm_calibration.csv"
        ).read_text()
    bands = calibrate_bands(parse_labeled_rrm_csv(text))
    path = _write(args.out, "bands.json", bands_to_json(bands))
    print(f"infrastructure_max={bands.infrastructure_max:.9g} human_max={bands.human_max:.9g}")
    print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallsense",
        description=(
            "Simulate FMCW radar scenes, classify reflections against an "
            "empty-room baseline, monitor zones through walls, and drive "
            "tiered safety policies."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene to a range-profile CSV")
    p.add_argument("--scene", required=True, help="scene JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override scene rng_seed")
    p.add_argument("--window", choices=[w.value for w in Window], default="hann")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("classify", help="classify scene peaks against a baseline scene")
    p.add_argument("--scene", required=True, help="target scene JSON path")
    p.add_argument("--baseline", required=True, help="empty-reference scene JSON path")
    p.add_argument("--bands", default=None, help="bands JSON path (defaults to config/stock)")
    p.add_argument("--seed", type=int, default=None, help="override target scene rng_seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("monitor", help="occupancy-check scan scenes against a baseline")
    p.add_argument(
        "--scene", action="append", required=True, help="scan scene JSON (repeatable)"
    )
    p.add_argument("--baseline", required=True, help="empty-reference scene JSON path")
    p.add_argument("--zone", default=None, help="zone override as 'near,far' in meters")
    p.add_argument("--seed", type=int, default=None, help="override scan rng_seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_monitor)

    p = sub.add_parser("scenario", help="run a built-in or file-defined scenario")
    p.add_argument("--name", default=None, help=f"built-in name: {', '.join(BUILTIN_SCENARIOS)}")
    p.add_argument("--scene", default=None, help="scenario JSON path")
    p.add_argument("--seed", type=int, default=None, help="override base scene rng_seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("calibrate", help="fit class bands from labeled rrm samples")
    p.add_argument("--input", default=None, help="labeled CSV 'rrm,label' (default: stock set)")
    p.add_argument("--out", required=True, help="output directory for bands.json")
    p.set_defaults(fn=_cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
