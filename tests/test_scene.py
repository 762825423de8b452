"""Scene model: geometry, property writes, billboard refresh, parsing."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adaptkit import (
    DetailLevel,
    DslSyntaxError,
    DuplicateId,
    Modality,
    SceneElement,
    SceneModel,
    TypeMismatch,
    UnknownElement,
    UnknownProperty,
    Vec3,
    distance,
    face_user_yaw,
    parse_scene,
)
from adaptkit.values import format_float

TAU = 2 * math.pi


def facing_error(yaw: float, element_pos: Vec3, user_pos: Vec3) -> float:
    """Angle between forward(yaw) and the horizontal direction to the user.

    Independent of the implementation: no atan2. The angle comes from the
    chord between the two unit vectors, ``2*asin(|f - d|/2)``, which stays
    exact near zero, where ``acos`` of their dot product cannot resolve
    angles under about 2e-8.
    """
    dx = user_pos.x - element_pos.x
    dz = user_pos.z - element_pos.z
    norm = math.sqrt(dx * dx + dz * dz)
    chord = math.hypot(math.sin(yaw) - dx / norm, math.cos(yaw) - dz / norm)
    return 2 * math.asin(min(1.0, chord / 2))


def brute_force_best_yaw(element_pos: Vec3, user_pos: Vec3, step: float = 1e-4) -> float:
    """Grid-search the yaw minimizing the facing error (the oracle): the best
    point of a coarse grid, then the best of a ``step`` grid around it. The
    facing error has one minimum on the circle, so the coarse point lies
    within one coarse step of it."""
    dx = user_pos.x - element_pos.x
    dz = user_pos.z - element_pos.z

    def dot(yaw: float) -> float:
        return math.sin(yaw) * dx + math.cos(yaw) * dz

    coarse = TAU / 720
    best = max((coarse * k for k in range(720)), key=dot)
    n = int(coarse / step) + 1
    return max((best + step * k for k in range(-n, n + 1)), key=dot) % TAU


class TestDistance:
    def test_three_four_five(self):
        assert distance(Vec3(0, 0, 0), Vec3(3, 4, 0)) == 5.0

    def test_identity(self):
        assert distance(Vec3(1.5, -2, 3), Vec3(1.5, -2, 3)) == 0.0

    def test_sqrt_three_prints_as_expected(self):
        assert format_float(distance(Vec3(1, 1, 1), Vec3(2, 2, 2))) == "1.732051"

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=6, max_size=6
        )
    )
    def test_symmetry_and_identity_property(self, cs):
        a = Vec3(cs[0], cs[1], cs[2])
        b = Vec3(cs[3], cs[4], cs[5])
        assert distance(a, b) == distance(b, a)
        assert distance(a, a) == 0.0
        assert distance(a, b) >= 0.0


class TestFaceUserYaw:
    def test_already_facing(self):
        assert face_user_yaw(Vec3(0, 0, 0), Vec3(0, 0, 5)) == 0.0

    def test_quarter_turn_toward_plus_x(self):
        assert face_user_yaw(Vec3(0, 0, 0), Vec3(5, 0, 0)) == pytest.approx(math.pi / 2)

    def test_user_directly_above_is_singular(self):
        assert face_user_yaw(Vec3(0, 0, 0), Vec3(0, 10, 0)) is None

    def test_result_is_normalized(self):
        yaw = face_user_yaw(Vec3(0, 0, 0), Vec3(-1, 0, -1))
        assert yaw is not None and 0.0 <= yaw < TAU

    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    @example(ex=0.0, ez=-49.0, ux=-49.0, uz=1e-9)  # acos scored this exact yaw 2.1e-8
    def test_facing_property_against_oracle(self, ex, ez, ux, uz):
        element_pos = Vec3(ex, 0.0, ez)
        user_pos = Vec3(ux, 1.7, uz)
        yaw = face_user_yaw(element_pos, user_pos)
        horizontal = math.hypot(ux - ex, uz - ez)
        if horizontal < 1e-9:
            assert yaw is None
            return
        err = facing_error(yaw, element_pos, user_pos)
        assert err < 1e-6
        best = brute_force_best_yaw(element_pos, user_pos)
        assert err <= facing_error(best, element_pos, user_pos) + 1e-12
        assert 0.0 <= yaw < TAU


def small_scene() -> SceneModel:
    return SceneModel(
        [
            SceneElement(id="panel", position=Vec3(0, 1, 0)),
            SceneElement(id="marker", position=Vec3(2, 0, 1), visible=False),
        ]
    )


class TestWriteProperty:
    def test_detail_write_returns_record(self):
        scene = small_scene()
        w = scene.write_property("panel", "detail", DetailLevel.REDUCED, writer="r")
        assert (w.old, w.new) == (DetailLevel.FULL, DetailLevel.REDUCED)
        assert scene.element("panel").detail is DetailLevel.REDUCED

    def test_noop_write_is_suppressed(self):
        scene = small_scene()
        assert scene.write_property("panel", "visible", True, writer="r") is None

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            small_scene().write_property("ghost", "visible", True, writer="r")

    def test_unknown_element_wins_over_unknown_property(self):
        with pytest.raises(UnknownElement, match="^no element 'ghost' in scene$"):
            small_scene().write_property("ghost", "altitude", True, writer="r")

    def test_unknown_property(self):
        with pytest.raises(UnknownProperty, match="^panel has no writable property 'altitude'$"):
            small_scene().write_property("panel", "altitude", 1.0, writer="r")

    def test_text_holds_no_line_break(self):
        scene = small_scene()
        for text in ("x\ny", "x\ry", "\r\n", "\n"):
            with pytest.raises(TypeMismatch, match="^text values must not contain newlines$"):
                scene.write_property("panel", "text", text, writer="r")
        assert scene.write_property("panel", "text", "x\ty", writer="r").new == "x\ty"

    def test_type_checked(self):
        scene = small_scene()
        with pytest.raises(TypeMismatch):
            scene.write_property("panel", "visible", "yes", writer="r")
        with pytest.raises(TypeMismatch):
            scene.write_property("panel", "text_size", -3.0, writer="r")
        with pytest.raises(TypeMismatch):
            scene.write_property("panel", "text_size", 10**400, writer="r")
        with pytest.raises(TypeMismatch):
            scene.write_property("panel", "modality", frozenset(), writer="r")

    @pytest.mark.parametrize("yaw", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_yaw_is_refused(self, yaw):
        scene = small_scene()
        with pytest.raises(TypeMismatch, match="yaw must be a finite number"):
            scene.write_property("panel", "yaw", yaw, writer="r")
        assert scene.element("panel").yaw == 0.0 and scene.drain_dirty() == set()

    def test_yaw_write_normalizes(self):
        scene = small_scene()
        scene.write_property("panel", "yaw", -math.pi / 2, writer="r")
        assert scene.element("panel").yaw == pytest.approx(3 * math.pi / 2)

    def test_write_records_match_applied_writes(self):
        # multiset parity between returned records and actual changes
        scene = small_scene()
        writes = []
        plan = [
            ("panel", "text", "a"),
            ("panel", "text", "a"),  # no-op
            ("panel", "text_size", 20.0),
            ("marker", "visible", True),
            ("marker", "visible", True),  # no-op
        ]
        for elem, prop, value in plan:
            w = scene.write_property(elem, prop, value, writer="t")
            if w is not None:
                writes.append((w.element_id, w.prop, w.new))
        assert sorted(writes) == [
            ("marker", "visible", True),
            ("panel", "text", "a"),
            ("panel", "text_size", 20.0),
        ]
        for w_elem, w_prop, w_new in writes:
            assert scene.get_property(w_elem, w_prop) == w_new

    def test_applied_writes_are_logged_until_drained(self):
        scene = small_scene()
        scene.write_property("panel", "text", "a", writer="r")
        scene.write_property("marker", "visible", True, writer="r")
        scene.write_property("panel", "visible", True, writer="r")  # no-op
        scene.write_property("panel", "text", "b", writer="r")
        assert scene.drain_dirty() == {("marker", "visible"), ("panel", "text")}
        assert scene.drain_dirty() == set()


class TestRefreshBillboards:
    def test_no_billboards_no_writes(self):
        assert small_scene().refresh_billboards(Vec3(5, 0, 0)) == []

    def test_one_billboard_turns(self):
        scene = small_scene()
        scene.write_property("panel", "billboard", True, writer="r")
        writes = scene.refresh_billboards(Vec3(5, 0, 0))
        assert len(writes) == 1
        assert writes[0].prop == "yaw"
        assert writes[0].new == pytest.approx(math.pi / 2)

    def test_user_above_is_skipped(self):
        scene = small_scene()
        scene.write_property("panel", "billboard", True, writer="r")
        assert scene.refresh_billboards(Vec3(0, 7, 0)) == []

    def test_same_position_skips_until_a_yaw_or_billboard_write(self):
        scene = small_scene()
        scene.write_property("panel", "billboard", True, writer="r")
        user = Vec3(5, 0, 0)
        assert len(scene.refresh_billboards(user)) == 1
        assert scene.refresh_billboards(user) == []
        scene.write_property("panel", "yaw", 1.0, writer="caller")
        assert [w.new for w in scene.refresh_billboards(user)] == [pytest.approx(math.pi / 2)]
        scene.write_property("panel", "billboard", False, writer="r")
        scene.write_property("panel", "billboard", True, writer="r")
        scene.write_property("panel", "yaw", 2.0, writer="caller")
        assert len(scene.refresh_billboards(user)) == 1
        scene.write_property("panel", "visible", False, writer="r")  # aims nothing
        assert scene.refresh_billboards(user) == []

    def test_added_element_is_aimed_at_the_same_position(self):
        scene = small_scene()
        user = Vec3(5, 0, 0)
        assert scene.refresh_billboards(user) == []
        scene.add_element(SceneElement(id="sign", position=Vec3(0, 0, 0), billboard=True))
        assert [w.element_id for w in scene.refresh_billboards(user)] == ["sign"]
        assert [e.id for e in scene.elements()][-1] == "sign"

    def test_elements_visited_in_id_order(self):
        scene = SceneModel(
            [
                SceneElement(id="zz", position=Vec3(0, 0, 0), billboard=True),
                SceneElement(id="aa", position=Vec3(1, 0, 1), billboard=True),
            ]
        )
        writes = scene.refresh_billboards(Vec3(5, 0, 2))
        assert [w.element_id for w in writes] == ["aa", "zz"]


class TestParseScene:
    def test_defaults(self):
        scene = parse_scene('element panel at (0.0,1.5,0.3)\n')
        el = scene.element("panel")
        assert el.yaw == 0.0
        assert el.visible is True
        assert el.text == ""
        assert el.text_size == 14.0
        assert el.detail is DetailLevel.FULL
        assert el.modalities == frozenset({Modality.VISUAL})
        assert el.highlight is None
        assert el.billboard is False

    def test_full_line(self):
        scene = parse_scene(
            'element hud at (1.0,2.0,-0.5) yaw 1.5 visible false '
            'text "hi # there" text_size 18 detail reduced '
            'modality audio,voice_input billboard true\n'
        )
        el = scene.element("hud")
        assert el.yaw == 1.5
        assert el.visible is False
        assert el.text == "hi # there"
        assert el.text_size == 18.0
        assert el.detail is DetailLevel.REDUCED
        assert el.modalities == frozenset({Modality.AUDIO, Modality.VOICE_INPUT})
        assert el.billboard is True

    def test_comments_and_blank_lines(self):
        scene = parse_scene("# a scene\n\nelement a at (0.0,0.0,0.0)  # trailing\n")
        assert scene.has_element("a")

    def test_duplicate_element(self):
        with pytest.raises(DuplicateId) as exc:
            parse_scene("element a at (0.0,0.0,0.0)\nelement a at (1.0,0.0,0.0)\n")
        assert exc.value.line == 2

    def test_bad_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_scene("element a at nowhere\n")
        assert exc.value.line == 1

    def test_unknown_attribute(self):
        with pytest.raises(DslSyntaxError):
            parse_scene("element a at (0.0,0.0,0.0) glow true\n")

    def test_modality_list_allows_spaces_after_commas(self):
        scene = parse_scene("element a at (0.0,0.0,0.0) modality visual, audio\n")
        assert scene.element("a").modalities == frozenset({Modality.VISUAL, Modality.AUDIO})

    @pytest.mark.parametrize(
        "attrs", ["at (1e400,0.0,0.0)", "at (0.0,0.0,0.0) yaw -1e400", "at (0.0,0.0,0.0) text_size 1e999"]
    )
    def test_non_finite_number_is_a_syntax_error(self, attrs):
        with pytest.raises(DslSyntaxError) as exc:
            parse_scene(f"element a at (0.0,0.0,0.0)\nelement b {attrs}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "attr",
        [
            "visible 1",
            "visible yes",
            "billboard \"true\"",
            "text 3",
            "text hello",
            "yaw true",
            "yaw (0.0,0.0,0.0)",
            "text_size 0",
            "text_size -2.5",
            "text_size \"big\"",
            "detail loud",
            "modality smell",
        ],
    )
    def test_bad_attribute_value_is_a_syntax_error_at_its_line(self, attr):
        with pytest.raises(DslSyntaxError) as exc:
            parse_scene(f"element a at (0.0,0.0,0.0)\n\nelement b at (0.0,0.0,0.0) {attr}\n")
        assert exc.value.line == 3

    def test_duplicate_attribute(self):
        with pytest.raises(DslSyntaxError):
            parse_scene("element a at (0.0,0.0,0.0) visible true visible false\n")
