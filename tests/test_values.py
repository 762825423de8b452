"""Value rendering, parsing, and normalization edge cases."""

from __future__ import annotations

import math

import pytest

from adaptkit import TypeMismatch, Vec3
from adaptkit.values import (
    check_value,
    normalize_yaw,
    parse_value,
    render_value,
    values_equal,
)

TAU = 2 * math.pi


class TestNormalizeYaw:
    def test_negative_wraps(self):
        assert normalize_yaw(-math.pi / 2) == pytest.approx(3 * math.pi / 2)

    def test_tiny_negative_does_not_round_to_tau(self):
        # -1e-18 % tau == tau exactly in float arithmetic; must clamp to 0
        r = normalize_yaw(-1e-18)
        assert r == 0.0 and 0.0 <= r < TAU

    def test_negative_zero_collapses(self):
        assert math.copysign(1.0, normalize_yaw(-0.0)) == 1.0

    def test_full_turn_wraps_to_zero(self):
        assert normalize_yaw(TAU) == 0.0


class TestRenderParse:
    @pytest.mark.parametrize(
        "value,text",
        [
            (True, "true"),
            (False, "false"),
            (-42, "-42"),
            (1.2, "1.200000"),
            (Vec3(1.0, -2.5, 0.0), "(1.000000,-2.500000,0.000000)"),
            ('with "quotes" and \\', '"with \\"quotes\\" and \\\\"'),
            ("a=b", '"a=b"'),
        ],
    )
    def test_round_trip(self, value, text):
        assert render_value(value) == text
        assert parse_value(text) == value

    def test_int_and_float_do_not_collide(self):
        assert parse_value("3") == 3 and type(parse_value("3")) is int
        assert parse_value("3.000000") == 3.0 and type(parse_value("3.000000")) is float

    def test_garbage_rejected(self):
        for bad in ("maybe", '"unterminated', "(1,2)", "1.2.3", "1 # x", "1e400", "(0,-1e400,0)", ""):
            with pytest.raises(ValueError):
                parse_value(bad)

    def test_newline_text_rejected(self):
        # a string literal ends at a line break, as in every format
        for text in ('"a\nb"', '"a\rb"', '"\r\n"'):
            with pytest.raises(ValueError, match="^unterminated string"):
                parse_value(text)
        with pytest.raises(TypeMismatch, match="newlines"):
            check_value("a\rb")


class TestValuesEqual:
    def test_bitwise_float_distinguishes_signed_zero(self):
        assert not values_equal(0.0, -0.0)
        assert values_equal(0.5, 0.5)

    def test_cross_type_never_equal(self):
        assert not values_equal(1, 1.0)
        assert not values_equal(True, 1)


class TestVec3Components:
    """Three exact finite floats are stored as given; anything else is
    checked one component at a time."""

    def test_exact_floats_are_kept_as_given(self):
        v = Vec3(1.5, -0.0, 1e308)
        assert (v.x, v.y, v.z) == (1.5, 0.0, 1e308)
        assert math.copysign(1.0, v.y) == -1.0  # -0.0 stays -0.0
        assert all(type(c) is float for c in (v.x, v.y, v.z))

    def test_a_sum_that_overflows_takes_the_general_path(self):
        v = Vec3(1e308, 1e308, -0.0)
        assert (v.x, v.y) == (1e308, 1e308) and math.copysign(1.0, v.z) == -1.0

    def test_ints_become_floats(self):
        v = Vec3(1, 2.5, -3)
        assert (v.x, v.y, v.z) == (1.0, 2.5, -3.0)
        assert all(type(c) is float for c in (v.x, v.y, v.z))

    def test_a_float_subclass_becomes_a_float(self):
        class F(float):
            pass

        v = Vec3(F(1.5), 2.0, 3.0)
        assert type(v.x) is float and v.x == 1.5

    @pytest.mark.parametrize(
        "bad", [True, False, math.nan, math.inf, -math.inf, "1", None, (1.0,)],
        ids=["true", "false", "nan", "inf", "-inf", "text", "none", "tuple"],
    )
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_each_bad_component_raises_at_any_position(self, bad, at):
        args = [1.0, 2.0, 3.0]
        args[at] = bad
        with pytest.raises(TypeMismatch) as exc:
            Vec3(*args)
        assert str(exc.value) == f"Vec3 components must be finite numbers, got {bad!r}"

    def test_opposite_infinities_raise_for_the_first(self):
        with pytest.raises(TypeMismatch, match="got inf"):
            Vec3(math.inf, -math.inf, 0.0)
