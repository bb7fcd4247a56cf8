"""The four workloads: seeded inputs, the operations of one round, and their checks.

A workload is built by prepare(name, seed, docs_dir). It writes the JSON
documents the CLI reads, parses the replay scenario from its document
with wallsense.scenefile, and captures the live loop's baseline. Every
round then runs the same operations:

  live    one closed-loop scan after another through the public stage
          functions, timed per scan (as demos/03 and `wallsense monitor`)
  replay  run_scenario on the workload's scenario, baseline included
  write   write_run_result for that run
  cli     `python -m wallsense.cli` subprocesses, one at a time

Checks compare outputs with reference.py (true ranges, the amplitude
model, the direct DFT, the documented tier, approach and band rules),
never with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import BIN_M, CheckFailed

import wallsense as ws

# Peaks within this many bins of the baseline reference are the reference
# itself; `wallsense classify` and run_scenario both skip them.
REFERENCE_EXCLUSION_BINS = 3
# True ranges are kept this far from every tier boundary (plain and
# widened), so a one-bin localization error cannot change the tier.
TIER_BOUNDARIES_M = (1.0, 1.2, 3.0, 3.2)
TIER_MARGIN_M = 0.09
FULL_PIPELINE = ["profile", "rrm", "classify", "throughwall", "safety"]


def fmt(x: float) -> str:
    return f"{x:.9g}"


@dataclass
class Invocation:
    label: str
    args: list[str]
    check: Callable[["CliOutcome"], None] | None = None
    # Field a malformed document must name; such an invocation counts as
    # failed, not as incorrect, when the CLI does not reject it cleanly.
    reject_field: str | None = None


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str
    out_dir: Path


@dataclass
class Workload:
    name: str
    docs_dir: Path
    scenario: ws.Scenario
    live_kind: str  # "classify" or "occupancy"
    live_scenes: list
    live_truth: list  # true target range per live scan, None when empty
    live_baseline: ws.Baseline
    live_zone: ws.MonitorZone | None
    replay_truth: list
    invocations: list[Invocation] = field(default_factory=list)
    # Live scan index per replay step when the live loop and the replay
    # run the same scenes.
    live_is_replay: bool = True
    sampled: tuple = (0,)

    @property
    def ops_per_round(self) -> int:
        return len(self.live_scenes) + 2 + len(self.invocations)


# ---------------------------------------------------------------------------
# Documents


def _scatterer(sid, r, material, kind="generic"):
    return {"id": sid, "range_m": r, "material": material, "kind": kind}


def _wall(wid, r, material):
    return {"id": wid, "range_m": r, "material": material}


def _scene_doc(walls, scatterers, noise, rng_seed, phase_seed, hint=None, zone=None):
    doc = {
        "scene": {
            "walls": walls,
            "scatterers": scatterers,
            "max_range_m": 8.0,
            "noise_amplitude": noise,
            "rng_seed": rng_seed,
            "phase_seed": phase_seed,
        }
    }
    if hint is not None:
        doc["baseline"] = {"feature_range_hint": hint}
    if zone is not None:
        doc["monitor"] = {"zone": zone}
    return doc


def _scenario_doc(scene_doc, name, pipeline, targets, target_doc):
    """One step per entry of targets: the base scene plus the target at that range, or nothing."""
    steps = []
    for i, r in enumerate(targets):
        muts = [] if r is None else [{"op": "add", "scatterer": target_doc(r)}]
        steps.append({"name": f"scan_{i:04d}", "mutations": muts})
    return dict(scene_doc, scenario={"name": name, "pipeline": pipeline, "steps": steps})


def _slice_doc(doc, every, pipeline):
    steps = doc["scenario"]["steps"][::every]
    return dict(doc, scenario=dict(doc["scenario"], name=doc["scenario"]["name"] + "_slice", steps=steps, pipeline=pipeline))


def _scan_doc(doc, index):
    """Replay step `index` of a scenario document as a single-scene document."""
    scene = dict(doc["scene"])
    scene["rng_seed"] = doc["scene"]["rng_seed"] + 1 + index
    scene["scatterers"] = list(scene["scatterers"]) + [
        m["scatterer"] for m in doc["scenario"]["steps"][index]["mutations"]
    ]
    return {k: v for k, v in dict(doc, scene=scene).items() if k != "scenario"}


def _write_docs(docs_dir: Path, docs: dict) -> None:
    docs_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=1)
        (docs_dir / name).write_text(text)


def _away_from_tiers(r: float) -> float:
    for b in TIER_BOUNDARIES_M:
        if abs(r - b) < TIER_MARGIN_M:
            r = b - TIER_MARGIN_M if r < b else b + TIER_MARGIN_M
    return round(r, 4)


# ---------------------------------------------------------------------------
# Trajectories


def _walk(rng, n, lo, hi, step_lo, step_hi):
    """A back-and-forth walk in [lo, hi] with a seeded speed per scan."""
    r = rng.uniform(lo, hi)
    direction = 1.0 if rng.random() < 0.5 else -1.0
    out = []
    for _ in range(n):
        r += direction * rng.uniform(step_lo, step_hi)
        if r > hi or r < lo:
            direction = -direction
            r = min(max(r, lo), hi)
        out.append(r)
    return out


def _traverse(rng, n, lo, hi):
    """Sheet positions that hold still, vanish, or move 4 to 6 bins per scan.

    Moves are never within two bins of the one-bin approach limit, so the
    running status computed from true ranges is the program's status.
    """
    r = rng.uniform(lo, hi)
    direction = 1.0
    out = []
    while len(out) < n:
        mode = rng.random()
        length = int(rng.integers(2, 9))
        for _ in range(length):
            if mode < 0.15:
                out.append(None)
                continue
            if mode >= 0.35:
                step = rng.uniform(4.0, 6.0) * BIN_M
                if not lo <= r + direction * step <= hi:
                    direction = -direction
                r += direction * step
            out.append(round(r, 4))
    return out[:n]


# ---------------------------------------------------------------------------
# Workload builders


def _seeds(rng):
    return int(rng.integers(1, 10_000)), int(rng.integers(1, 10_000))


def noisy_sweep(seed: int, docs_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    rng_seed, phase_seed = _seeds(rng)
    truth = [_away_from_tiers(r) for r in _walk(rng, 300, 0.5, 5.5, 0.02, 0.09)]
    zone = {"near_m": 0.1, "far_m": 5.9, "excess_threshold": 5e-4, "guard_bins": 2}
    base = _scene_doc([_wall("back_wall", 6.0, "lab_wall")], [], 5e-4, rng_seed, phase_seed, hint=6.0, zone=zone)
    person = lambda r: _scatterer("person", r, "human", "human")  # noqa: E731
    doc = _scenario_doc(base, "noisy_sweep", ["profile", "rrm", "classify", "safety"], truth, person)
    return _scan_workload("noisy_sweep", doc, truth, docs_dir, "classify", sampled=(0, 150))


def long_traverse(seed: int, docs_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    rng_seed, phase_seed = _seeds(rng)
    truth = _traverse(rng, 1600, 0.40, 2.30)
    walls = [_wall("partition", 0.10, "plasterboard"), _wall("far_wall", 2.60, "plasterboard")]
    zone = {"near_m": 0.10, "far_m": 2.60, "excess_threshold": 0.01, "guard_bins": 2}
    base = _scene_doc(walls, [], 0.0, rng_seed, phase_seed, hint=2.60, zone=zone)
    sheet = lambda r: dict(_scatterer("sheet", r, "metal_sheet", "metal_sheet"), extent_m=[0.3, 0.3])  # noqa: E731
    doc = _scenario_doc(base, "long_traverse", ["profile", "throughwall", "safety"], truth, sheet)
    statuses = ref.approach_statuses(truth, tolerance_m=2 * BIN_M)
    if None in statuses:
        raise RuntimeError("long_traverse generator produced an ambiguous approach step")
    return _scan_workload("long_traverse", doc, truth, docs_dir, "occupancy", sampled=(0, 800))


def cluttered_room(seed: int, docs_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    rng_seed, phase_seed = _seeds(rng)
    clutter = [
        _scatterer(
            f"clutter_{k:03d}",
            round(float(rng.uniform(3.6, 7.6)), 4),
            {"name": "furniture", "reflectivity": round(float(rng.uniform(0.02, 0.3)), 4), "transmissivity": 0.5},
            "infrastructure",
        )
        for k in range(100)
    ]
    walls = [_wall("partition", 0.5, "plasterboard"), _wall("back_wall", 7.8, "lab_wall")]
    truth = [None if rng.random() < 0.2 else round(float(rng.uniform(0.8, 2.7)), 4) for _ in range(300)]
    zone = {"near_m": 0.5, "far_m": 3.0, "excess_threshold": 5e-4, "guard_bins": 2}
    base = _scene_doc(walls, clutter, 0.0, rng_seed, phase_seed, hint=0.5, zone=zone)
    person = lambda r: _scatterer("person", r, "human", "human")  # noqa: E731
    doc = _scenario_doc(base, "cluttered_room", ["profile", "throughwall", "safety"], truth, person)
    return _scan_workload("cluttered_room", doc, truth, docs_dir, "occupancy", sampled=(0, 1, 150))


def _scan_workload(name, doc, truth, docs_dir, live_kind, sampled) -> Workload:
    """Live loop and replay run the scenario's own scenes; the CLI replays a slice and monitors eight scans."""
    n = len(truth)
    picks = [i for i in range(0, n, max(1, n // 8))][:8]
    docs = {
        "scenario.json": doc,
        "slice.json": _slice_doc(doc, max(1, n // 12), FULL_PIPELINE),
        "empty.json": {k: v for k, v in doc.items() if k != "scenario"},
    }
    docs.update({f"scan_{i:04d}.json": _scan_doc(doc, i) for i in picks})
    _write_docs(docs_dir, docs)
    scenario = ws.load_scenario_file(docs_dir / "scenario.json")
    scenes = [_step_scene(scenario, i) for i in range(n)]
    w = Workload(
        name=name,
        docs_dir=docs_dir,
        scenario=scenario,
        live_kind=live_kind,
        live_scenes=scenes,
        live_truth=truth,
        live_baseline=_baseline(scenario.base_scene, scenario.baseline_hint_m, f"{scenario.name}:baseline"),
        live_zone=scenario.zone,
        replay_truth=truth,
        sampled=sampled,
    )
    d = str(docs_dir)
    w.invocations = [
        Invocation("simulate", ["simulate", "--scene", f"{d}/scan_{picks[1]:04d}.json"], _check_simulate(docs[f"scan_{picks[1]:04d}.json"])),
        Invocation(
            "monitor",
            ["monitor", "--baseline", f"{d}/empty.json"] + [a for i in picks for a in ("--scene", f"{d}/scan_{i:04d}.json")],
            _check_monitor_truth([truth[i] for i in picks]),
        ),
        Invocation("scenario_slice", ["scenario", "--scene", f"{d}/slice.json"], _check_same_as_library(docs_dir / "slice.json")),
    ]
    return w


def cli_batch(seed: int, docs_dir: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    rng_seed, phase_seed = _seeds(rng)
    d = str(docs_dir)

    corridor = [_wall("partition", 0.10, "plasterboard"), _wall("far_wall", 2.60, "plasterboard")]
    zone = {"near_m": 0.10, "far_m": 2.60, "excess_threshold": 1e-3, "guard_bins": 2}
    empty = _scene_doc(corridor, [], 0.0, rng_seed, phase_seed, hint=2.60, zone=zone)
    scan_truth = _traverse(rng, 300, 0.40, 2.30)
    person = lambda r: _scatterer("person", r, "human", "human")  # noqa: E731
    scan_docs = _scenario_doc(empty, "corridor", ["profile"], scan_truth, person)

    room = [_wall("back_wall", 6.0, "lab_wall")]
    room_empty = _scene_doc(room, [], 0.0, rng_seed, phase_seed, hint=6.0)
    person_r = round(float(rng.uniform(1.5, 4.5)), 4)
    plate_r = round(person_r + float(rng.choice([-1, 1])) * float(rng.uniform(0.6, 1.2)), 4)
    room_target = _scene_doc(
        room,
        [person(person_r), dict(_scatterer("plate", plate_r, "metal_sheet", "metal_sheet"), extent_m=[0.3, 0.3])],
        0.0,
        rng_seed + 1,
        phase_seed,
    )

    walk_truth = [_away_from_tiers(r) for r in _walk(rng, 240, 0.6, 4.5, 0.05, 0.4)]
    walk_zone = {"near_m": 0.1, "far_m": 5.8, "excess_threshold": 1e-3, "guard_bins": 2}
    walk = _scenario_doc(
        _scene_doc(room, [], 0.0, rng_seed, phase_seed, hint=6.0, zone=walk_zone), "walk", FULL_PIPELINE, walk_truth, person
    )

    labeled = (
        [(round(float(rng.uniform(0.85, 1.15)), 4), "Infrastructure") for _ in range(3)]
        + [(round(float(rng.uniform(1.3, 2.2)), 4), "Human") for _ in range(4)]
        + [(round(float(rng.uniform(6.0, 16.0)), 4), "Metallic") for _ in range(4)]
    )
    bad_bandwidth = dict(room_empty, chirp={"bandwidth_hz": 0})
    bad_range = _scene_doc(room, [], 0.0, rng_seed, phase_seed)
    bad_range["scene"]["max_range_m"] = math.nan

    docs = {
        "corridor_empty.json": empty,
        "room_empty.json": room_empty,
        "room_target.json": room_target,
        "walk.json": walk,
        "labeled.csv": "rrm,label\n" + "".join(f"{v},{label}\n" for v, label in labeled),
        "bad_bandwidth.json": bad_bandwidth,
        "bad_range.json": bad_range,
    }
    docs.update({f"corridor_{i:03d}.json": _scan_doc(scan_docs, i) for i in range(len(scan_truth))})
    _write_docs(docs_dir, docs)

    corridor_cfg = ws.load_scene_config(docs_dir / "corridor_empty.json")
    scan_scenes = [ws.load_scene_config(docs_dir / f"corridor_{i:03d}.json").scene for i in range(len(scan_truth))]
    w = Workload(
        name="cli_batch",
        docs_dir=docs_dir,
        scenario=ws.load_scenario_file(docs_dir / "walk.json"),
        live_kind="occupancy",
        live_scenes=scan_scenes,
        live_truth=scan_truth,
        live_baseline=_baseline(corridor_cfg.scene, corridor_cfg.baseline_hint_m, "corridor_empty"),
        live_zone=corridor_cfg.zone,
        replay_truth=walk_truth,
        live_is_replay=False,
        sampled=(),
    )
    w.invocations = [
        Invocation("simulate", ["simulate", "--scene", f"{d}/room_target.json"], _check_simulate(room_target)),
        Invocation(
            "classify",
            ["classify", "--scene", f"{d}/room_target.json", "--baseline", f"{d}/room_empty.json"],
            _check_classify(person_r, plate_r),
        ),
        Invocation(
            "monitor",
            ["monitor", "--baseline", f"{d}/corridor_empty.json"]
            + [a for i in range(len(scan_truth)) for a in ("--scene", f"{d}/corridor_{i:03d}.json")],
            _check_monitor_truth(scan_truth),
        ),
        Invocation("scenario_human_sweep", ["scenario", "--name", "human_sweep"], _check_human_sweep),
        Invocation("scenario_walk", ["scenario", "--scene", f"{d}/walk.json"], _check_same_as_library(docs_dir / "walk.json")),
        Invocation("calibrate_stock", ["calibrate"], _check_bands(_stock_labeled())),
        Invocation("calibrate_labeled", ["calibrate", "--input", f"{d}/labeled.csv"], _check_bands(labeled)),
        Invocation("bad_bandwidth", ["simulate", "--scene", f"{d}/bad_bandwidth.json"], reject_field="chirp.bandwidth_hz"),
        Invocation("bad_range", ["simulate", "--scene", f"{d}/bad_range.json"], reject_field="scene.max_range_m"),
    ]
    return w


BUILDERS = {f.__name__: f for f in (noisy_sweep, long_traverse, cluttered_room, cli_batch)}


def prepare(name: str, seed: int, docs_dir: Path) -> Workload:
    return BUILDERS[name](seed, docs_dir)


def _step_scene(scenario, index):
    """Step `index` of a scenario as documented: base scene plus its additions,
    noise seed base+1+index, phase seed pinned to the base scene's."""
    added = tuple(m.scatterer for m in scenario.steps[index].mutations)
    base = scenario.base_scene
    return replace(
        base,
        scatterers=base.scatterers + added,
        rng_seed=base.rng_seed + 1 + index,
        phase_seed=base.effective_phase_seed,
    )


def _baseline(scene, hint, label):
    return ws.capture_baseline([ws.range_profile(ws.synthesize_beat(scene))], hint, label=label)


# ---------------------------------------------------------------------------
# Live loop


def live_scan_classify(w: Workload, i: int, scene, state):
    """One scan from scene to tier decision: profile, rrm, classify, safety."""
    sc = w.scenario
    prof = ws.range_profile(ws.synthesize_beat(scene, sc.chirp))
    peaks = ws.detect_peaks(prof, sc.detect_min_prominence, sc.detect_min_rsa)
    ref_bin = w.live_baseline.reference_feature.bin_index
    entries = []
    for p in peaks:
        if abs(p.bin_index - ref_bin) > REFERENCE_EXCLUSION_BINS:
            entries.append((p, ws.classify(ws.rrm_compensated(p, w.live_baseline), sc.bands)))
    state = ws.update_tier(state, entries, sc.tier_config)
    line = ws.format_log_line(i, state)
    return state, (tuple(p.bin_index for p in peaks), entries, state, line)


def live_scan_occupancy(w: Workload, i: int, scene, state, reports):
    """One scan from scene to door decision: profile, occupancy, running approach status."""
    sc = w.scenario
    zone = w.live_zone
    report = ws.detect_occupancy(w.live_baseline, ws.range_profile(ws.synthesize_beat(scene, sc.chirp)), zone, scan_index=i)
    reports.append(report)
    status = ws.track_approach(reports, zone).status.value
    state = ws.update_door_policy(state, report)
    line = ws.format_log_line(i, state)
    return state, (report, status, state, line)


def monitor_row(report, status) -> str:
    s = report.strongest()
    r = "" if s is None else fmt(s.range_m)
    e = "" if s is None else fmt(s.rsa)
    return f"{report.scan_index},{report.occupied},{r},{e},{status}"


# ---------------------------------------------------------------------------
# Checks of one round


def check_live(w: Workload, live: list) -> None:
    if w.live_kind == "classify":
        distances = []
        for i, ((_, entries, _, _), truth) in enumerate(zip(live, w.live_truth)):
            if not entries:
                raise CheckFailed(f"{w.name} scan {i}: no non-reference reading")
            peak, cls = max(entries, key=lambda e: e[0].rsa)
            ref.check_within_bin(f"{w.name} scan {i} strongest reading", peak.range_m, truth)
            ref.check_equal(f"{w.name} scan {i} class", str(cls), "Human")
            distances.append(truth)
        tiers = [str(state.tier) for _, _, state, _ in live]
        ref.check_sequence(f"{w.name} tiers", tiers, ref.tier_sequence(distances))
        return
    for i, ((report, _, _, _), truth) in enumerate(zip(live, w.live_truth)):
        ref.check_equal(f"{w.name} scan {i} occupied", report.occupied, truth is not None)
        if truth is not None:
            ref.check_within_bin(f"{w.name} scan {i} strongest detection", report.strongest().range_m, truth)
    tolerance = 0.0 if w.name == "long_traverse" else 2 * BIN_M
    ref.check_sequence(
        f"{w.name} running status", [s for _, s, _, _ in live], ref.approach_statuses(w.live_truth, tolerance_m=tolerance)
    )


def check_replay(w: Workload, live: list, result, out_dir: Path) -> None:
    steps = result.steps
    ref.check_equal(f"{w.name} replay steps", len(steps), len(w.replay_truth))
    profiles = sorted(out_dir.glob("profile_*.csv"))
    ref.check_equal(f"{w.name} profile files", len(profiles), len(steps))
    pipeline = w.scenario.pipeline
    if "rrm" in pipeline:
        rows = _csv_rows(out_dir / "summary.csv")
        ref.check_equal(f"{w.name} summary rows", len(rows), len(steps))
        for i, (row, truth) in enumerate(zip(rows, w.replay_truth)):
            ref.check_within_bin(f"{w.name} summary step {i}", float(row["detected_range_m"]), truth)
            ref.check_equal(f"{w.name} summary step {i} class", row["class"], "Human")
        ref.check_sequence(
            f"{w.name} replay tiers", [str(s.safety.tier) for s in steps], ref.tier_sequence(w.replay_truth)
        )
    if "throughwall" in pipeline:
        rows = _csv_rows(out_dir / "monitor.csv")
        ref.check_equal(f"{w.name} monitor.csv rows", len(rows), len(steps))
        for i, (row, truth) in enumerate(zip(rows, w.replay_truth)):
            ref.check_equal(f"{w.name} monitor.csv row {i} occupied", row["occupied"], str(truth is not None))
            if truth is not None:
                ref.check_within_bin(f"{w.name} monitor.csv row {i}", float(row["range_m"]), truth)
    if not w.live_is_replay:
        return
    log_lines = (out_dir / "safety.log").read_text().splitlines()
    ref.check_sequence(f"{w.name} safety.log", log_lines, [rec[-1] for rec in live])
    for i, (step, rec) in enumerate(zip(steps, live)):
        ref.check_equal(f"{w.name} step {i} safety state", step.safety, rec[2])
        if w.live_kind == "classify":
            ref.check_equal(f"{w.name} step {i} peaks", tuple(p.bin_index for p in step.peaks), rec[0])
        else:
            ref.check_equal(f"{w.name} step {i} occupancy", step.occupancy, rec[0])
    if w.live_kind == "occupancy":
        got = (out_dir / "monitor.csv").read_text().splitlines()[1:]
        ref.check_sequence(f"{w.name} monitor.csv", got, [monitor_row(r, s) for r, s, _, _ in live])


def check_model(w: Workload) -> None:
    """Beat samples against the amplitude/phase model and one profile against the direct DFT."""
    for k, i in enumerate(w.sampled):
        scene = w.live_scenes[i]
        beat = ws.synthesize_beat(scene, w.scenario.chirp)
        walls = [(x.id, x.range_m, x.material.reflectivity, x.material.transmissivity) for x in scene.walls]
        scats = [(x.id, x.range_m, x.material.reflectivity, x.material.transmissivity) for x in scene.scatterers]
        want = ref.beat_samples(walls, scats, scene.noise_amplitude, scene.rng_seed, scene.effective_phase_seed)
        ref.check_close(f"{w.name} scan {i} beat samples", beat.samples, want)
        if k == 0:
            prof = ws.range_profile(beat)
            ref.check_close(f"{w.name} scan {i} range profile", prof.rsa, ref.direct_profile(want))


# ---------------------------------------------------------------------------
# CLI checks


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _check_same_as_library(path):
    """`wallsense scenario` writes the same bytes as run_scenario + write_run_result."""
    cache: dict[str, dict[str, bytes]] = {}

    def check(outcome: CliOutcome) -> None:
        if "want" not in cache:
            lib_dir = outcome.out_dir.parent / (outcome.out_dir.name + ".library")
            scenario = ws.load_scenario_file(path)
            ws.write_run_result(ws.run_scenario(scenario), lib_dir)
            cache["want"] = {p.name: p.read_bytes() for p in sorted(lib_dir.iterdir())}
            for p in lib_dir.iterdir():
                p.unlink()
            lib_dir.rmdir()
        got = {p.name: p.read_bytes() for p in sorted(outcome.out_dir.iterdir())}
        ref.check_equal(f"scenario {path.name} files", sorted(got), sorted(cache["want"]))
        for name in got:
            if got[name] != cache["want"][name]:
                raise CheckFailed(f"scenario {path.name}: {name} differs from the library's output")

    return check


def _check_monitor_truth(truth):
    want_status = ref.approach_statuses(truth, tolerance_m=2 * BIN_M)

    def check(outcome: CliOutcome) -> None:
        rows = _csv_rows(outcome.out_dir / "monitor.csv")
        ref.check_equal("monitor rows", len(rows), len(truth))
        for i, (row, t) in enumerate(zip(rows, truth)):
            ref.check_equal(f"monitor row {i} occupied", row["occupied"], str(t is not None))
            if t is not None:
                ref.check_within_bin(f"monitor row {i}", float(row["range_m"]), t)
        ref.check_sequence("monitor status", [row["status"] for row in rows], want_status)

    return check


def _check_simulate(doc):
    """profile.csv is the direct DFT of the amplitude/phase model of the document's scene."""
    scene = doc["scene"]
    cache = {}

    def reflectors(items):
        out = []
        for x in items:
            m = x["material"]
            refl, trans = ref.MATERIALS[m] if isinstance(m, str) else (m["reflectivity"], m["transmissivity"])
            out.append((x["id"], x["range_m"], refl, trans))
        return out

    def check(outcome: CliOutcome) -> None:
        if "want" not in cache:
            beat = ref.beat_samples(
                reflectors(scene["walls"]), reflectors(scene["scatterers"]),
                scene["noise_amplitude"], scene["rng_seed"], scene["phase_seed"],
            )
            cache["want"] = ref.direct_profile(beat)
        want = cache["want"]
        rows = _csv_rows(outcome.out_dir / "profile.csv")
        ref.check_close("simulate profile.csv", np.array([float(r["rsa"]) for r in rows]), want, rel=1e-8)
        ref.check_close(
            "simulate profile.csv ranges", np.array([float(r["range_m"]) for r in rows]), np.arange(len(rows)) * BIN_M, rel=1e-8
        )

    return check


def _check_classify(person_r, plate_r):
    def check(outcome: CliOutcome) -> None:
        rows = _csv_rows(outcome.out_dir / "classification.csv")
        for truth, cls in ((person_r, "Human"), (plate_r, "Metallic")):
            near = [r for r in rows if abs(float(r["peak_range_m"]) - truth) <= BIN_M]
            if not near:
                raise CheckFailed(f"classify: no peak within one bin of {truth} m")
            ref.check_equal(f"classify class at {truth} m", max(near, key=lambda r: float(r["rsa"]))["class"], cls)

    return check


def _check_human_sweep(outcome: CliOutcome) -> None:
    rows = _csv_rows(outcome.out_dir / "summary.csv")
    ref.check_equal("human_sweep summary rows", len(rows), 4)
    for row, truth in zip(rows, (1.0, 2.0, 3.0, 4.0)):
        ref.check_within_bin(f"human_sweep {row['step']}", float(row["detected_range_m"]), truth)
        ref.check_equal(f"human_sweep {row['step']} class", row["class"], "Human")


def _stock_labeled():
    path = Path(ws.__file__).parent / "data" / "default_rrm_calibration.csv"
    lines = path.read_text().split()[1:]
    return [(float(v), label) for v, label in (line.split(",") for line in lines)]


def _check_bands(labeled):
    want = ref.geometric_bands(labeled)

    def check(outcome: CliOutcome) -> None:
        doc = json.loads((outcome.out_dir / "bands.json").read_text())
        ref.check_bands("calibrate bands.json", (doc["infrastructure_max"], doc["human_max"]), want)

    return check
