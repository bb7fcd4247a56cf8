"""In-memory spans around calls into wallsense's public functions.

The tracer rebinds every public module-level function of wallsense, in
every wallsense namespace that holds it, to a wrapper that records a
span: [name, start_ns, end_ns, parent, scan, info]. Nothing in wallsense
changes on disk; uninstall() restores the original bindings. Spans stay
in memory and are written out once, at the end of a run.

Wrappers do O(1) work besides timing. Counts that need real work (raw
maxima of a profile, reflectors of a scene) keep a reference to the input
and are computed by reduce() after the timed rounds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

MODULES = ("scene", "synth", "profile", "classify", "throughwall", "safety", "scenario", "scenefile", "cli")

NAME, START, END, PARENT, SCAN, INFO = range(6)


def _info_hook(name):
    """What a span keeps of its call, by span name; None keeps nothing."""
    if name == "profile.detect_peaks":
        return lambda args, kwargs, result: (args[0].rsa, len(result))
    if name == "synth.synthesize_beat":
        return lambda args, kwargs, result: args[0]
    if name == "throughwall.track_approach":
        return lambda args, kwargs, result: len(args[0])
    if name == "scenario.run_scenario":
        return lambda args, kwargs, result: len(result.steps)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.scan: int | None = None
        self._auto_scan = -1

    def begin_op(self, scan: int | None = None) -> None:
        """Start a top-level operation; scan ids count synthesized scans unless given."""
        self.scan = scan
        self._auto_scan = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = _info_hook(name)
        counts_scans = name == "synth.synthesize_beat"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_scans:
                self._auto_scan += 1
            scan = self.scan if self.scan is not None else self._auto_scan
            span = [name, 0, 0, stack[-1] if stack else -1, scan, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every public wallsense function to a span-recording wrapper."""
        mods = {m: importlib.import_module(f"wallsense.{m}") for m in MODULES}
        wrappers = {
            fn: self._wrap(f"{short}.{attr}", fn)
            for short, mod in mods.items()
            for attr, fn in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__
        }
        for mod in [*mods.values(), sys.modules["wallsense"]]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def export(self) -> list[list]:
        """Spans with their deferred counts resolved, ready for JSON."""
        out = []
        for name, start, end, parent, scan, info in self.spans:
            if info is None:  # no hook, or the call raised
                pass
            elif name == "profile.detect_peaks":
                info = [_raw_maxima(info[0]), info[1]]
            elif name == "synth.synthesize_beat":
                info = len(info.reflectors())
            out.append([name, start, end, parent, scan, info])
        return out


def _raw_maxima(values) -> int:
    # Imported late: reference imports numpy, which must not load before
    # clitrace.py times the import of wallsense.cli.
    from reference import raw_maxima

    return raw_maxima(values)


def merge(groups: list[list[list]]) -> list[list]:
    """Concatenate span lists from several processes, re-basing parent indices."""
    out: list[list] = []
    for spans in groups:
        base = len(out)
        for s in spans:
            out.append([s[NAME], s[START], s[END], s[PARENT] + base if s[PARENT] >= 0 else -1, s[SCAN], s[INFO]])
    return out


def reduce(spans: list[list], import_ms: list[float], write_samples: list[tuple[int, int]]) -> dict:
    """Per-layer metrics, name -> (value, unit), from exported spans (see README).

    import_ms holds one wallsense.cli import time per traced CLI child;
    write_samples holds (bytes, files) per in-process write_run_result.
    """
    dur: dict[str, list[int]] = {}
    child_ns = [0] * len(spans)
    for s in spans:
        dur.setdefault(s[NAME], []).append(s[END] - s[START])
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    def mean(name, scale=1e-3):
        vals = dur.get(name, [])
        return statistics.fmean(vals) * scale if vals else 0.0

    def total(*names):
        return sum(sum(dur.get(n, [])) for n in names)

    def calls(name):
        return len(dur.get(name, []))

    def self_ns(name):
        return [s[END] - s[START] - child_ns[i] for i, s in enumerate(spans) if s[NAME] == name]

    synth_calls = calls("synth.synthesize_beat") or 1
    peaks = [s[INFO] for s in spans if s[NAME] == "profile.detect_peaks" and s[INFO] is not None]
    raw = sum(p[0] for p in peaks)
    kept = sum(p[1] for p in peaks)
    tracks = [s[INFO] for s in spans if s[NAME] == "throughwall.track_approach" and s[INFO] is not None]
    runs = [(s[END] - s[START], s[INFO]) for s in spans if s[NAME] == "scenario.run_scenario" and s[INFO] is not None]
    run_self = self_ns("scenario.run_scenario")
    run_steps = sum(n for _, n in runs) or 1
    readings = calls("classify.rrm_compensated")
    loads = ("scenefile.load_scene_config", "scenefile.load_scenario_file", "scenefile.load_bands")
    load_calls = sum(calls(n) for n in loads)
    write_self = self_ns("scenario.write_run_result")

    return {
        "profile.detect_peaks_us": (mean("profile.detect_peaks"), "us"),
        "profile.raw_maxima_per_scan": (raw / len(peaks) if peaks else 0.0, "count"),
        "profile.peaks_kept_ratio": (kept / raw if raw else 0.0, "ratio"),
        "profile.profile_to_csv_us": (mean("profile.profile_to_csv"), "us"),
        "synth.synthesize_beat_us": (mean("synth.synthesize_beat"), "us"),
        "synth.reflectors_per_scan": (sum(s[INFO] or 0 for s in spans if s[NAME] == "synth.synthesize_beat") / synth_calls, "count"),
        "scene.validate_scene_us": (mean("scene.validate_scene"), "us"),
        "scene.effective_amplitude_us": (total("scene.effective_amplitude") * 1e-3 / synth_calls, "us"),
        "classify.rrm_classify_us": (total("classify.rrm_compensated", "classify.classify") * 1e-3 / readings if readings else 0.0, "us"),
        "classify.readings_per_scan": (readings / synth_calls, "count"),
        "classify.capture_baseline_ms": (mean("classify.capture_baseline", 1e-6), "ms"),
        "throughwall.detect_occupancy_us": (mean("throughwall.detect_occupancy"), "us"),
        "throughwall.track_approach_us": (mean("throughwall.track_approach"), "us"),
        "throughwall.track_reports_per_scan": (statistics.fmean(tracks) if tracks else 0.0, "count"),
        "safety.update_tier_us": (mean("safety.update_tier"), "us"),
        "safety.update_door_policy_us": (mean("safety.update_door_policy"), "us"),
        "safety.format_log_line_us": (mean("safety.format_log_line"), "us"),
        "scenario.run_scenario_us_per_scan": (sum(d for d, _ in runs) * 1e-3 / run_steps, "us"),
        "scenario.overhead_us_per_scan": (sum(run_self) * 1e-3 / run_steps, "us"),
        "scenario.write_run_result_ms": (mean("scenario.write_run_result", 1e-6), "ms"),
        "scenario.write_io_ms": (statistics.fmean(write_self) * 1e-6 if write_self else 0.0, "ms"),
        "scenario.monitor_to_csv_ms": (mean("scenario.monitor_to_csv", 1e-6), "ms"),
        "scenario.bytes_written": (statistics.fmean(b for b, _ in write_samples) if write_samples else 0.0, "B"),
        "scenario.files_written": (statistics.fmean(f for _, f in write_samples) if write_samples else 0.0, "count"),
        "scenefile.load_us": (total(*loads) * 1e-3 / load_calls if load_calls else 0.0, "us"),
        "cli.import_ms": (statistics.median(import_ms) if import_ms else 0.0, "ms"),
        "cli.main_ms": (mean("cli.main", 1e-6), "ms"),
    }
