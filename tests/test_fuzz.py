"""Fuzz the CLI with valid documents that have one leaf replaced.

Whatever the replacement, `simulate` and `scenario` must return an exit
code (0, 1 or 2) and never raise, and a rejection (exit 1) must name the
last key of the replaced path. The base documents are the golden
fixtures, each with the full default chirp and the defaults of any
monitor zone spelled out so that every chirp and zone field is a leaf
too. To run every one-leaf replacement and list each rejection that does
not name its key:

    PYTHONPATH=src python tests/test_fuzz.py
"""

import contextlib
import copy
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wallsense import DEFAULT_CHIRP, MonitorZone
from wallsense.cli import main

from test_golden import DOCS

# No value here makes a run allocate a large array: 1e300 as sweep_time_s
# or sample_rate_hz, and 1 as sweep_time_s, ask for more samples than
# synth.MAX_SAMPLES and fail before synthesis. 1e-200 as a range_m makes
# the inverse-square spreading gain overflow. 10**400 is a JSON integer
# that converts to no float.
POOL = (None, "", [], {}, True, -1, 0, 1e300, 1e-200, "x", [{}], 10**400)

BASES = [
    *(("simulate", name) for name, doc in sorted(DOCS.items())
      if isinstance(doc, dict) and "scene" in doc and name != "out_of_bounds.json"),
    ("scenario", "walk.json"),
]


def _base(name: str) -> dict:
    doc = copy.deepcopy(DOCS[name])
    doc["chirp"] = {**dataclasses.asdict(DEFAULT_CHIRP), **doc.get("chirp", {})}
    if "zone" in doc.get("monitor", {}):
        defaults = {f.name: f.default for f in dataclasses.fields(MonitorZone)
                    if f.default is not dataclasses.MISSING}
        doc["monitor"]["zone"] = {**defaults, **doc["monitor"]["zone"]}
    return doc


def _leaves(node, path=()):
    """Paths to every scalar and every empty container in node."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    if not children:
        yield path
    for key, child in children:
        yield from _leaves(child, (*path, key))


def _replaced(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return doc


def _key(path: tuple) -> str:
    """The last string key of path: the field a rejection should name."""
    return next(k for k in reversed(path) if isinstance(k, str))


def _run(command: str, doc: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--scene", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("command, name", BASES)
def test_base_documents_are_valid(command, name):
    assert _run(command, _base(name)) == (0, "")


@st.composite
def _mutations(draw):
    command, name = draw(st.sampled_from(BASES))
    doc = _base(name)
    path = draw(st.sampled_from(list(_leaves(doc))))
    return command, name, path, draw(st.sampled_from(POOL))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutations())
@example(("simulate", "noisy_room.json", ("scene", "scatterers", 1, "range_m"), None))
@example(("scenario", "walk.json", ("chirp", "sweep_time_s"), 1e300))
@example(("simulate", "noisy_room.json", ("scene", "scatterers", 0, "range_m"), 1e-200))
@example(("simulate", "noisy_room.json", ("scene", "walls", 0, "range_m"), 1e-200))
@example(("simulate", "noisy_room.json", ("chirp", "bandwidth_hz"), 1e300))
@example(("scenario", "walk.json", ("chirp", "bandwidth_hz"), 1e-200))
@example(("scenario", "walk.json", ("baseline", "feature_range_hint"), 1e300))
@example(("scenario", "walk.json", ("monitor", "zone", "guard_bins"), 10**400))
def test_one_replaced_leaf_never_raises(case):
    command, name, path, value = case
    code, err = _run(command, _replaced(_base(name), path, value))
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code == 1:
        assert _key(path) in err, err


if __name__ == "__main__":
    import sys

    unnamed = 0
    for command, name in BASES:
        base = _base(name)
        for path in _leaves(base):
            for value in POOL:
                code, err = _run(command, _replaced(base, path, value))
                if code == 1 and _key(path) not in err:
                    unnamed += 1
                    print(f"{command} {name} {path} = {value!r}: {err.strip()}")
    print(f"{unnamed} rejection(s) without their key")
    sys.exit(1 if unnamed else 0)
