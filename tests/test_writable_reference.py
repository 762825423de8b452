"""Differential tests: every check and renderer of scene.WRITABLE, and
values.format_float, against the reference copies in reference_props.py.

The checks accept the exact types the engine writes in one test and send
every other value down the general path, so they must agree with the
reference on any value: the same result, of the same type and bits, or the
same exception class and message. Renderers are compared on every value
the reference check accepts.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_props as ref
from adaptkit import SceneElement, SceneModel, TypeMismatch, Vec3, face_user_yaw
from adaptkit.scene import WRITABLE, DetailLevel, Modality, prop_values_equal
from adaptkit.values import TAU, float_bits, format_float


class MyInt(int):
    pass


class MyFloat(float):
    pass


class MyStr(str):
    pass


class MyTuple(tuple):
    pass


class MyFrozenset(frozenset):
    pass


SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, TAU, -TAU, math.nextafter(TAU, 0.0),
    math.nextafter(TAU, math.inf), 5e-324, -5e-324, 1e308, -1e-300, math.pi,
)
HUGE_INTS = (10**309, -(10**309), 2**1024, 2**1024 - 1)

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
ints = st.integers() | st.sampled_from(HUGE_INTS) | st.integers(min_value=-(10**400), max_value=10**400)
numbers = (
    floats | ints | st.booleans()
    | floats.map(MyFloat) | st.integers(-300, 300).map(MyInt)
)
components = (
    st.integers(-2, 258) | st.booleans() | st.integers(0, 255).map(MyInt)
    | st.sampled_from((0.0, 1.0, 255.0, math.nan)) | st.just(None) | st.just("1")
)
colours = (
    st.tuples(components, components, components)
    | st.tuples(components, components, components).map(MyTuple)
    | st.tuples(components, components, components).map(list)
    | st.lists(components, max_size=4).map(tuple)
)
modality_members = st.sampled_from(tuple(Modality)) | st.sampled_from(("visual", "audio", 0, 1, None))
modality_sets = (
    st.frozensets(st.sampled_from(tuple(Modality)))
    | st.frozensets(st.sampled_from(tuple(Modality))).map(MyFrozenset)
    | st.frozensets(modality_members, max_size=4)
    | st.sets(st.sampled_from(tuple(Modality)), max_size=3)
    | st.lists(st.sampled_from(tuple(Modality)), max_size=3).map(tuple)
)
values = (
    numbers | colours | modality_sets | st.none()
    | st.text(max_size=4) | st.text(max_size=4).map(MyStr)
    | st.sampled_from(tuple(DetailLevel)) | st.sampled_from(("full", "reduced", b"x"))
)


def _key(value):
    """A value as exactly as the comparison needs: type and float bits."""
    if isinstance(value, float):
        return type(value), float_bits(value)
    if isinstance(value, (tuple, frozenset)):
        return type(value), sorted(map(repr, (_key(v) for v in value)))
    return type(value), value


def _outcome(fn, value):
    try:
        result = fn(value)
    except Exception as e:  # the reference raises only what the code under test must raise
        return "raise", type(e), str(e)
    return "ok", _key(result)


# the edges every check must still tell apart, tried on every property
EDGE_VALUES = (
    *SPECIAL_FLOATS, *(MyFloat(f) for f in SPECIAL_FLOATS), *HUGE_INTS, MyInt(3), True, False, 0, 1, 255, 256,
    (255, 0, 0), (0, 0, 0), (True, 0, 0), (0, False, 0), (1, 2, True), (MyInt(1), 2, 3), (-1, 0, 0), (0, 0, 256),
    (1.0, 2, 3), (1, 2), (1, 2, 3, 4), [1, 2, 3], MyTuple((1, 2, 3)), None,
    frozenset(), frozenset({Modality.AUDIO}), frozenset(Modality), MyFrozenset({Modality.VISUAL}),
    MyFrozenset(), frozenset({"visual"}), frozenset({Modality.AUDIO, "audio"}), {Modality.AUDIO},
    (Modality.AUDIO,), "", "x", MyStr("y"), "a\nb", "\r", MyStr("c\r\n"), DetailLevel.REDUCED, "reduced",
)


def test_check_matches_reference_on_edges():
    for prop, (check, render) in ref.WRITABLE.items():
        spec = WRITABLE[prop]
        for value in EDGE_VALUES:
            assert _outcome(spec.check, value) == _outcome(check, value), (prop, value)
            if _outcome(check, value)[0] == "ok":
                assert spec.render(spec.check(value)) == render(check(value)), (prop, value)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(WRITABLE)), values)
def test_check_matches_reference(prop, value):
    check, _ = ref.WRITABLE[prop]
    assert _outcome(WRITABLE[prop].check, value) == _outcome(check, value)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(WRITABLE)), values)
def test_render_matches_reference_on_accepted_values(prop, value):
    check, render = ref.WRITABLE[prop]
    try:
        stored = check(value)
    except Exception:
        return
    spec = WRITABLE[prop]
    assert spec.render(stored) == render(stored)
    assert spec.render(spec.check(value)) == render(stored)


def test_every_valid_modality_set_renders_in_canonical_order():
    sets = [frozenset(m for i, m in enumerate(Modality) if bits >> i & 1) for bits in range(1, 8)]
    for s in sets + [MyFrozenset(s) for s in sets]:
        assert WRITABLE["modality"].render(s) == ref.render_modalities(s)


@given(floats | ints | st.booleans() | floats.map(MyFloat))
def test_format_float_matches_reference(value):
    assert _outcome(format_float, value) == _outcome(ref.format_float, value)


coords = st.sampled_from((0.0, -0.0, 1e-10, -1e-10, 1.0, -2.5, 1e154, -1e300)) | st.floats(-10, 10)


@settings(max_examples=200, deadline=None)
@given(st.tuples(coords, coords, coords), st.tuples(coords, coords, coords), st.floats(0.0, 6.0))
def test_refresh_billboards_aims_as_face_user_yaw(element_at, user_at, start_yaw):
    """The billboard pass computes its yaw inline; it must be face_user_yaw's,
    to the bit, and write nothing where that is None."""
    element_pos, user_pos = Vec3(*element_at), Vec3(*user_at)
    scene = SceneModel([SceneElement(id="b", position=element_pos, yaw=start_yaw, billboard=True)])
    scene.refresh_billboards(user_pos)
    want = face_user_yaw(element_pos, user_pos)
    got = scene.element("b").yaw
    assert float_bits(got) == float_bits(start_yaw if want is None else want)


# write_property decides a no-op without packing floats: equal non-zero
# values are a no-op, unequal ones a change, and only zeros compare bits.
# Its decision must be prop_values_equal's between the value an element
# holds (here built directly, so it may be NaN, -0.0, an int or a
# subnormal) and the value the property's check makes of the one written.
NOOP_EDGES = [
    (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0),
    (1.5, 1.5), (3.0, 3), (0, 0.0), (0, -0.0),
    (5e-324, 5e-324), (5e-324, 1e-323), (2.2250738585072014e-308, 2.2250738585072014e-308),
    (math.nan, 0.0), (math.nan, 1.5), (-math.nan, 5e-324), (math.inf, 1.0),
    (-0.0, 5e-324), (math.nextafter(TAU, 0), math.nextafter(TAU, 0)), (TAU, 0.0),
]


def _noop_outcome(prop, held, written):
    """(write_property's no-op verdict, prop_values_equal's), or None when
    the check refuses the written value."""
    try:
        checked = WRITABLE[prop].check(written)
    except TypeMismatch:
        return None
    scene = SceneModel([SceneElement(id="e", position=Vec3(0.0, 0.0, 0.0), **{WRITABLE[prop].attr: held})])
    write = scene.write_property("e", prop, written, writer="t")
    stored = getattr(scene.element("e"), WRITABLE[prop].attr)
    if write is None:
        assert stored is held
    else:
        assert _key(stored) == _key(checked)
    return write is None, prop_values_equal(held, checked)


@pytest.mark.parametrize("prop", ["yaw", "text_size"])
@pytest.mark.parametrize("held, written", NOOP_EDGES)
def test_float_noop_matches_prop_values_equal_on_edges(prop, held, written):
    outcome = _noop_outcome(prop, held, written)
    if outcome is not None:
        assert outcome[0] == outcome[1]


@pytest.mark.parametrize("prop, held, written", [
    ("visible", False, False), ("billboard", False, False), ("visible", 0.0, False),
    ("highlight", None, None), ("text", "", ""), ("text", "", "a"),
])
def test_falsy_noop_matches_prop_values_equal(prop, held, written):
    outcome = _noop_outcome(prop, held, written)
    assert outcome is not None and outcome[0] == outcome[1]


@st.composite
def _held_and_written(draw):
    held = draw(st.floats())  # NaN, infinities, -0.0 and subnormals included
    written = draw(st.one_of(
        st.just(held), st.just(-held), st.just(abs(held)), st.floats(allow_nan=False),
        st.floats(min_value=0.0, max_value=5e-308),
    ))
    return held, written


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["yaw", "text_size"]), _held_and_written())
def test_float_noop_matches_prop_values_equal(prop, pair):
    outcome = _noop_outcome(prop, *pair)
    if outcome is not None:
        assert outcome[0] == outcome[1]
