import dataclasses
import json
import math
import re

import pytest

from wallsense import (
    DEFAULT_BANDS,
    DEFAULT_CHIRP,
    HUMAN_BODY,
    PLASTERBOARD,
    AddScatterer,
    ChirpConfig,
    ClassBands,
    Material,
    MonitorZone,
    MoveScatterer,
    RemoveScatterer,
    Scatterer,
    Scenario,
    Scene,
    TargetClass,
    TierConfig,
    Wall,
    bands_from_mapping,
    bands_to_json,
    load_bands,
    load_scenario_file,
    load_scene_config,
    parse_labeled_rrm_csv,
    parse_scenario,
    parse_scene_config,
    scenario_from_config,
)

FULL_DOC = {
    "chirp": {"bandwidth_hz": 1e9},
    "scene": {
        "scatterers": [
            {"id": "person", "range_m": 2.0, "material": "human", "kind": "human"},
            {
                "id": "plate",
                "range_m": 3.0,
                "material": {"name": "steel", "reflectivity": 0.85, "transmissivity": 0.0},
                "extent_m": [0.3, 0.3],
            },
        ],
        "walls": [{"id": "w", "range_m": 6.0, "material": "lab_wall"}],
        "max_range_m": 7.5,
        "noise_amplitude": 0.001,
        "rng_seed": 42,
        "phase_seed": 9,
    },
    "baseline": {"feature_range_hint": 6.0},
    "classifier": {"bands": {"infrastructure_max": 1.2, "human_max": 4.0}},
    "monitor": {"zone": {"near_m": 0.1, "far_m": 2.6, "excess_threshold": 0.02}},
    "safety": {"tiers": {"stop_range_m": 0.8}},
    "detector": {"min_rsa": 3e-4, "min_prominence": 2e-4},
}


class TestParseSceneConfig:
    def test_empty_document_yields_defaults(self):
        cfg = parse_scene_config({})
        assert cfg.scene.scatterers == () and cfg.scene.walls == ()
        assert cfg.chirp == DEFAULT_CHIRP
        assert cfg.baseline_hint_m is None
        assert cfg.bands == DEFAULT_BANDS
        assert cfg.zone is None
        assert cfg.tier_config == TierConfig()
        assert (cfg.detect_min_rsa, cfg.detect_min_prominence) == (2e-4, 1e-4)

        # Present but sparse sections take each absent field's dataclass default.
        material = {"name": "m", "reflectivity": 0.1, "transmissivity": 0.5}
        cfg = parse_scene_config({
            "scene": {"scatterers": [{"id": "s", "range_m": 2.0, "material": material}]},
            "monitor": {"zone": {"near_m": 0.1, "far_m": 2.6}},
            "safety": {"tiers": {}},
        })
        assert cfg.scene == Scene(scatterers=(Scatterer("s", 2.0, Material("m", 0.1, 0.5)),))
        assert cfg.zone == MonitorZone(0.1, 2.6)
        assert cfg.tier_config == TierConfig()
        assert parse_scene_config({"scene": {}}).scene == Scene()

        # Sparse reflectors and chirp: the material defaults to the human or
        # plasterboard preset, every other key to the dataclass default.
        cfg = parse_scene_config({
            "chirp": {"bandwidth_hz": 1e9},
            "scene": {
                "scatterers": [{"id": "s", "range_m": 2.0}],
                "walls": [{"id": "w", "range_m": 6.0}],
            },
        })
        assert cfg.chirp == ChirpConfig(bandwidth_hz=1e9)
        assert cfg.scene.scatterers == (Scatterer("s", 2.0, HUMAN_BODY),)
        assert cfg.scene.walls == (Wall("w", 6.0, PLASTERBOARD),)
        assert parse_scene_config({"chirp": {}}).chirp == ChirpConfig()

    def test_full_document(self):
        cfg = parse_scene_config(FULL_DOC)
        assert cfg.chirp.bandwidth_hz == 1e9
        ids = [s.id for s in cfg.scene.scatterers]
        assert ids == ["person", "plate"]
        assert cfg.scene.scatterers[0] == Scatterer("person", 2.0, HUMAN_BODY)
        assert cfg.scene.scatterers[1].material.reflectivity == 0.85
        assert cfg.scene.walls[0].material.name == "lab_wall"
        assert (cfg.scene.rng_seed, cfg.scene.phase_seed) == (42, 9)
        assert cfg.scene.max_range_m == 7.5
        assert cfg.baseline_hint_m == 6.0
        assert cfg.bands == ClassBands(1.2, 4.0)
        assert (cfg.zone.near_m, cfg.zone.far_m) == (0.1, 2.6)
        assert cfg.zone.excess_threshold == 0.02
        assert cfg.tier_config.stop_range_m == 0.8
        assert cfg.detect_min_rsa == 3e-4

    def test_a_scenario_takes_every_setting_from_the_document(self):
        cfg = parse_scene_config(FULL_DOC)
        scenario = scenario_from_config(cfg, "full", (), ("profile",))
        assert scenario.base_scene == cfg.scene
        for f in dataclasses.fields(Scenario):
            if f.default is not dataclasses.MISSING:
                assert getattr(scenario, f.name) == getattr(cfg, f.name) != f.default, f.name

    def test_unknown_material_preset(self):
        doc = {"scene": {"walls": [{"id": "w", "range_m": 1.0, "material": "styrofoam"}]}}
        with pytest.raises(ValueError, match="unknown material preset 'styrofoam'"):
            parse_scene_config(doc)

    def test_missing_field_names_its_path(self):
        doc = {"scene": {"scatterers": [{"id": "s"}]}}
        with pytest.raises(ValueError, match=r"scene\.scatterers\[0\]\.range_m"):
            parse_scene_config(doc)

    def test_inline_material_requires_coefficients(self):
        doc = {
            "scene": {
                "scatterers": [
                    {"id": "s", "range_m": 1.0, "material": {"name": "mystery"}}
                ]
            }
        }
        with pytest.raises(ValueError, match=r"material\.reflectivity"):
            parse_scene_config(doc)

    def test_unknown_scatterer_keys_are_ignored(self):
        plain = {"scene": {"scatterers": [{"id": "s", "range_m": 1.0}]}}
        for key, value in (("extent_m", [{}, 1]), ("kind", "drone"), ("kind", 7)):
            extra = {"scene": {"scatterers": [{"id": "s", "range_m": 1.0, key: value}]}}
            assert parse_scene_config(extra) == parse_scene_config(plain)

    def test_a_carrier_frequency_is_ignored(self):
        # Older documents carry chirp.center_freq_hz, which no sample depends on.
        plain = parse_scene_config({"chirp": {"bandwidth_hz": 1e9}})
        for value in (24e9, -1, "K-band"):
            doc = {"chirp": {"center_freq_hz": value, "bandwidth_hz": 1e9}}
            assert parse_scene_config(doc) == plain

    def test_wrong_container_types(self):
        with pytest.raises(ValueError, match=r"scene\.walls: expected an array"):
            parse_scene_config({"scene": {"walls": {}}})
        with pytest.raises(ValueError, match=r"scene\.scatterers\[0\]: expected an object"):
            parse_scene_config({"scene": {"scatterers": ["person"]}})
        with pytest.raises(ValueError, match="expected a number"):
            parse_scene_config({"scene": {"max_range_m": "far"}})

    def test_phase_seed_must_be_integer(self):
        with pytest.raises(ValueError, match="phase_seed"):
            parse_scene_config({"scene": {"phase_seed": "abc"}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(FULL_DOC))
        assert load_scene_config(path) == parse_scene_config(FULL_DOC)


class TestStrictFields:
    @pytest.mark.parametrize("field", ["bandwidth_hz", "sweep_time_s", "sample_rate_hz"])
    @pytest.mark.parametrize("value", [0, -1.0])
    def test_chirp_fields_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=rf"chirp\.{field}: expected a positive number"):
            parse_scene_config({"chirp": {field: value}})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_rejected(self, value):
        with pytest.raises(ValueError, match=r"scene\.max_range_m: expected a finite number"):
            parse_scene_config({"scene": {"max_range_m": value}})
        with pytest.raises(ValueError, match=r"chirp\.bandwidth_hz: expected a finite number"):
            parse_scene_config({"chirp": {"bandwidth_hz": value}})

    def test_integer_too_large_for_a_float_is_rejected(self):
        with pytest.raises(ValueError, match=r"scene\.max_range_m: expected a finite number"):
            parse_scene_config({"scene": {"max_range_m": 10**400}})

    def test_json_nan_literal_is_rejected(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"scene": {"max_range_m": NaN}}')
        with pytest.raises(ValueError, match=r"scene\.max_range_m"):
            load_scene_config(path)

    def test_rng_seed_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"scene\.rng_seed: expected an integer, got 1\.7"):
            parse_scene_config({"scene": {"rng_seed": 1.7}})

    def test_guard_bins_must_be_an_integer(self):
        doc = {"monitor": {"zone": {"near_m": 0.1, "far_m": 2.6, "guard_bins": 2.5}}}
        with pytest.raises(ValueError, match=r"monitor\.zone\.guard_bins: expected an integer"):
            parse_scene_config(doc)

    def test_phase_seed_rejects_booleans(self):
        with pytest.raises(ValueError, match=r"scene\.phase_seed: expected an integer, got True"):
            parse_scene_config({"scene": {"phase_seed": True}})

    def test_null_phase_seed_means_unset(self):
        assert parse_scene_config({"scene": {"phase_seed": None}}).scene.phase_seed is None


class TestParseScenario:
    def _doc(self, **scenario):
        base = {
            "scene": {"walls": [{"id": "w", "range_m": 6.0, "material": "lab_wall"}]},
            "baseline": {"feature_range_hint": 6.0},
            "scenario": {
                "name": "demo",
                "pipeline": ["profile", "rrm", "classify"],
                "steps": [
                    {
                        "name": "enter",
                        "mutations": [
                            {
                                "op": "add",
                                "scatterer": {"id": "p", "range_m": 2.0, "material": "human"},
                            }
                        ],
                    },
                    {"mutations": [{"op": "move", "id": "p", "range_m": 1.0}]},
                    {"name": "leave", "mutations": [{"op": "remove", "id": "p"}]},
                ],
            },
        }
        base["scenario"].update(scenario)
        return base

    def test_round_trip(self):
        sc = parse_scenario(self._doc())
        assert sc.name == "demo"
        assert sc.pipeline == ("profile", "rrm", "classify")
        assert sc.baseline_hint_m == 6.0
        assert sc.bands == DEFAULT_BANDS
        assert [s.name for s in sc.steps] == ["enter", "step_1", "leave"]
        assert sc.steps[0].mutations == (
            AddScatterer(sc.steps[0].mutations[0].scatterer),
        )
        assert sc.steps[1].mutations == (MoveScatterer("p", 1.0),)
        assert sc.steps[2].mutations == (RemoveScatterer("p"),)

    def test_missing_scenario_section(self):
        with pytest.raises(ValueError, match="scenario: expected an object"):
            parse_scenario({"scene": {}})

    def test_missing_name(self):
        doc = self._doc()
        del doc["scenario"]["name"]
        with pytest.raises(ValueError, match=r"scenario\.name"):
            parse_scenario(doc)

    def test_unknown_mutation_op(self):
        doc = self._doc(steps=[{"name": "x", "mutations": [{"op": "teleport", "id": "p"}]}])
        with pytest.raises(ValueError, match="unknown mutation op 'teleport'"):
            parse_scenario(doc)

    def test_pipeline_entries_must_be_strings(self):
        doc = self._doc(pipeline=["profile", 3])
        with pytest.raises(ValueError, match=r"scenario\.pipeline\[1\]"):
            parse_scenario(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self._doc()))
        assert load_scenario_file(path) == parse_scenario(self._doc())


class TestBandsJson:
    def test_round_trip(self):
        text = bands_to_json(DEFAULT_BANDS)
        assert text.endswith("\n")
        back = bands_from_mapping(json.loads(text))
        assert back == DEFAULT_BANDS

    def test_unbounded_upper_edge_serializes_as_null(self):
        text = bands_to_json(ClassBands(1.2, math.inf))
        assert json.loads(text)["human_max"] is None
        assert bands_from_mapping(json.loads(text)).human_max == math.inf

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "bands.json"
        path.write_text(bands_to_json(ClassBands(1.2, 4.0)))
        assert load_bands(path) == ClassBands(1.2, 4.0)


class TestLabeledRrmCsv:
    def test_parses_labels_case_insensitively(self):
        text = "rrm,label\n1.0,Infrastructure\n1.5,human\n9.0,METALLIC\n"
        assert parse_labeled_rrm_csv(text) == [
            (1.0, TargetClass.INFRASTRUCTURE),
            (1.5, TargetClass.HUMAN),
            (9.0, TargetClass.METALLIC),
        ]

    def test_blank_lines_are_skipped(self):
        text = "rrm,label\n\n1.0,Infrastructure\n\n"
        assert len(parse_labeled_rrm_csv(text)) == 1

    def test_header_required(self):
        with pytest.raises(ValueError, match="header 'rrm,label'"):
            parse_labeled_rrm_csv("value,class\n1.0,Human\n")

    def test_bad_number(self):
        with pytest.raises(ValueError, match="line 2: rrm is not a number"):
            parse_labeled_rrm_csv("rrm,label\nfast,Human\n")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="line 2: unknown label 'Robot'"):
            parse_labeled_rrm_csv("rrm,label\n1.0,Robot\n")

    def test_wrong_column_count(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_labeled_rrm_csv("rrm,label\n1.0\n")

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_number(self, text):
        message = f"^line 3: rrm must be a finite number, got '{text}'$"
        with pytest.raises(ValueError, match=message):
            parse_labeled_rrm_csv(f"rrm,label\n1.0,Infrastructure\n{text},Metallic\n")


@pytest.mark.parametrize("load", [load_scene_config, load_scenario_file, load_bands])
def test_top_level_array_is_rejected(load, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected an object$"):
        load(path)
