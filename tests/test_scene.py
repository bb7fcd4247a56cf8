import math

import pytest

from wallsense import (
    HUMAN_BODY,
    LAB_WALL,
    PLASTERBOARD,
    Material,
    Scatterer,
    Scene,
    Wall,
)
from wallsense.scene import _amplitude


def _scatterer(rid, range_m, reflectivity=1.0, transmissivity=0.5):
    return Scatterer(rid, range_m, Material("test", reflectivity, transmissivity))


NAN = float("nan")
INF = float("inf")


class TestValidateScene:
    """A Scatterer or Wall checks itself when built, then the Scene that holds it."""

    def test_empty_scene_is_valid(self):
        assert Scene().reflectors() == ()

    def test_typical_scene_is_valid(self):
        Scene(
            scatterers=(Scatterer("person", 2.0, HUMAN_BODY),),
            walls=(Wall("back", 6.0, LAB_WALL),),
        )

    def test_scatterer_beyond_max_range_is_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            Scene(scatterers=(_scatterer("far", 9.0),), max_range_m=8.0)

    @pytest.mark.parametrize("cls", [Scatterer, Wall])
    def test_reflector_at_exactly_max_range_is_out_of_bounds(self, cls):
        kind = cls.__name__.lower()
        message = rf"^{kind} 'r' at 8\.0 m is out of bounds \(max_range_m 8\.0\)$"
        with pytest.raises(ValueError, match=message):
            Scene(**{f"{kind}s": (cls("r", 8.0, PLASTERBOARD),)}, max_range_m=8.0)

    @pytest.mark.parametrize("cls", [Scatterer, Wall])
    def test_reflector_just_inside_max_range_is_valid(self, cls):
        ref = cls("r", math.nextafter(8.0, 0), PLASTERBOARD)
        Scene(**{f"{cls.__name__.lower()}s": (ref,)}, max_range_m=8.0)

    def test_zero_max_range_is_flagged(self):
        with pytest.raises(ValueError, match=r"^scene\.max_range_m must be > 0, got 0\.0$"):
            Scene(max_range_m=0.0)

    def test_duplicate_wall_range_is_flagged(self):
        with pytest.raises(ValueError, match="duplicate wall range"):
            Scene(walls=(Wall("w1", 0.1, PLASTERBOARD), Wall("w2", 0.1, PLASTERBOARD)))

    def test_unsorted_walls_are_flagged(self):
        with pytest.raises(ValueError, match="sorted"):
            Scene(walls=(Wall("w1", 3.0, PLASTERBOARD), Wall("w2", 1.0, PLASTERBOARD)))

    def test_negative_reflectivity_is_flagged(self):
        with pytest.raises(ValueError, match="reflectivity"):
            _scatterer("bad", 1.0, reflectivity=-0.1)

    def test_transmissivity_above_one_is_flagged(self):
        with pytest.raises(ValueError, match="transmissivity"):
            _scatterer("bad", 1.0, transmissivity=1.5)

    @pytest.mark.parametrize(
        "reflectivity, transmissivity", [(0.0, 0.5), (1.0, 0.0), (1.0, 1.0)]
    )
    def test_material_bounds_are_valid(self, reflectivity, transmissivity):
        Scene(scatterers=(_scatterer("s", 1.0, reflectivity, transmissivity),))

    def test_nonpositive_range_is_flagged(self):
        with pytest.raises(ValueError, match="range_m"):
            _scatterer("zero", 0.0)

    def test_duplicate_ids_are_flagged(self):
        with pytest.raises(ValueError, match="duplicate reflector id"):
            Scene(scatterers=(_scatterer("x", 1.0), _scatterer("x", 2.0)))

    def test_duplicate_ids_are_listed_in_sorted_order(self):
        # Reflector order is walls first: 'b' is seen before 'a'.
        with pytest.raises(ValueError) as exc:
            Scene(
                walls=(Wall("b", 0.5, PLASTERBOARD),),
                scatterers=(_scatterer("b", 1.0), _scatterer("a", 2.0), _scatterer("a", 3.0)),
            )
        assert str(exc.value) == "duplicate reflector id 'a'; duplicate reflector id 'b'"

    def test_raise_if_invalid(self):
        # Every violation that spans records is reported, in one message joined by "; ".
        with pytest.raises(ValueError) as exc:
            Scene(
                scatterers=(_scatterer("far", 9.0),),
                walls=(Wall("w2", 3.0, PLASTERBOARD), Wall("w1", 1.0, PLASTERBOARD)),
                max_range_m=8.0,
            )
        assert str(exc.value) == (
            "scatterer 'far' at 9.0 m is out of bounds (max_range_m 8.0); "
            "walls not sorted by range ascending"
        )

    def test_one_record_reports_all_of_its_problems(self):
        with pytest.raises(ValueError) as exc:
            _scatterer("bad", 0.0, reflectivity=-0.1)
        assert str(exc.value) == (
            "scatterer 'bad': range_m must be > 0, got 0.0; "
            "scatterer 'bad': material.reflectivity must be finite and >= 0, got -0.1"
        )

    def test_nan_scatterer_range_is_flagged(self):
        with pytest.raises(ValueError, match=r"^scatterer 's': range_m must be > 0, got nan$"):
            _scatterer("s", NAN)

    def test_nan_wall_range_is_flagged(self):
        with pytest.raises(ValueError, match=r"^wall 'w': range_m must be > 0, got nan$"):
            Wall("w", NAN, PLASTERBOARD)

    @pytest.mark.parametrize("value", [1e-200, 5e-324])
    def test_range_whose_spreading_gain_overflows_is_flagged(self, value):
        gain = rf"range_m {value} is too small, its spreading gain overflows"
        with pytest.raises(ValueError, match=rf"^scatterer 's': {gain}$"):
            _scatterer("s", value)

    @pytest.mark.parametrize("value", [1e-200, 5e-324])
    def test_wall_range_whose_spreading_gain_overflows_is_flagged(self, value):
        gain = rf"range_m {value} is too small, its spreading gain overflows"
        with pytest.raises(ValueError, match=rf"^wall 'w': {gain}$"):
            Wall("w", value, PLASTERBOARD)

    def test_smallest_ranges_with_a_finite_gain_are_valid(self):
        Scene(scatterers=(_scatterer("s", 1e-154),))

    def test_nan_max_range_is_flagged(self):
        with pytest.raises(ValueError, match=r"^scene\.max_range_m must be > 0, got nan$"):
            Scene(max_range_m=NAN)

    def test_nan_noise_amplitude_is_flagged(self):
        with pytest.raises(
            ValueError, match=r"^scene\.noise_amplitude must be finite and >= 0, got nan$"
        ):
            Scene(noise_amplitude=NAN)

    @pytest.mark.parametrize("value", [INF, -INF])
    def test_infinite_noise_amplitude_is_flagged(self, value):
        with pytest.raises(
            ValueError, match=rf"^scene\.noise_amplitude must be finite and >= 0, got {value}$"
        ):
            Scene(noise_amplitude=value)

    def test_negative_rng_seed_is_flagged(self):
        with pytest.raises(ValueError, match=r"^scene\.rng_seed must be >= 0, got -1$"):
            Scene(noise_amplitude=1e-3, rng_seed=-1)

    def test_nan_reflectivity_is_flagged(self):
        with pytest.raises(
            ValueError,
            match=r"^scatterer 's': material\.reflectivity must be finite and >= 0, got nan$",
        ):
            _scatterer("s", 1.0, reflectivity=NAN)

    @pytest.mark.parametrize("value", [INF, -INF])
    def test_infinite_reflectivity_is_flagged(self, value):
        with pytest.raises(
            ValueError,
            match=rf"^wall 'w': material\.reflectivity must be finite and >= 0, got {value}$",
        ):
            Wall("w", 1.0, Material("m", value, 0.0))


class TestEffectiveAmplitude:
    def test_unit_reflector_at_reference_range(self):
        s = _scatterer("s", 1.0)
        assert _amplitude(Scene(scatterers=(s,)), s) == 1.0

    def test_inverse_square_spreading(self):
        s = _scatterer("s", 2.0)
        assert _amplitude(Scene(scatterers=(s,)), s) == 0.25

    def test_wall_attenuates_twice(self):
        # 1.0 * 0.8^2 (two-way transit) * (1/2)^2 = 0.16
        s = _scatterer("s", 2.0)
        wall = Wall("w", 1.0, Material("glass", 0.1, 0.8))
        assert _amplitude(Scene(scatterers=(s,), walls=(wall,)), s) == pytest.approx(
            0.16, rel=1e-12
        )

    def test_only_strictly_nearer_walls_attenuate(self):
        s = _scatterer("s", 2.0)
        near = Wall("near", 1.0, Material("m", 0.1, 0.5))
        far = Wall("far", 5.0, Material("m", 0.1, 0.0))
        scene = Scene(scatterers=(s,), walls=(near, far))
        assert _amplitude(scene, s) == pytest.approx(0.25 * 0.25, rel=1e-12)

    def test_wall_is_not_attenuated_by_itself(self):
        w1 = Wall("w1", 1.0, Material("m", 0.5, 0.6))
        w2 = Wall("w2", 2.0, Material("m", 0.5, 0.6))
        scene = Scene(walls=(w1, w2))
        assert _amplitude(scene, w1) == pytest.approx(0.5, rel=1e-12)
        assert _amplitude(scene, w2) == pytest.approx(0.5 * 0.36 * 0.25, rel=1e-12)

    def test_monotone_non_increasing_with_range(self):
        prev = None
        for r in (0.5, 1.0, 1.7, 2.4, 3.9, 6.0):
            s = _scatterer("s", r)
            amp = _amplitude(Scene(scatterers=(s,), walls=()), s)
            if prev is not None:
                assert amp <= prev
            prev = amp

    def test_removing_a_wall_never_decreases_amplitude(self):
        s = _scatterer("s", 3.0)
        wall = Wall("w", 1.0, Material("m", 0.1, 0.7))
        with_wall = _amplitude(Scene(scatterers=(s,), walls=(wall,)), s)
        without = _amplitude(Scene(scatterers=(s,)), s)
        assert without >= with_wall

    def test_transparent_walls_reduce_to_bare_spreading(self):
        s = _scatterer("s", 3.0, reflectivity=0.7)
        walls = (Wall("a", 1.0, Material("m", 0.0, 1.0)), Wall("b", 2.0, Material("m", 0.0, 1.0)))
        amp = _amplitude(Scene(scatterers=(s,), walls=walls), s)
        assert amp == pytest.approx(0.7 / 9.0, rel=1e-12)

    def test_opaque_wall_blocks_everything_behind(self):
        s = _scatterer("s", 3.0)
        wall = Wall("metal", 1.0, Material("m", 0.9, 0.0))
        assert _amplitude(Scene(scatterers=(s,), walls=(wall,)), s) == 0.0
