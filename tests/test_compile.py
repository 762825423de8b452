"""Differential test: compiled expressions against eval_expr, the reference.

Random trees of comparisons, ``&&``, ``||``, ``!`` and ``dist()`` -- typed
or not -- are compiled against a store and a scene and evaluated next to
eval_expr, before and after the store and scene change under them. Both
must return the same value, or raise the same exception class with the
same message. A second test draws comparisons of a source with a
constant, the shapes that compile into atoms and the same written the
other way round, with operands of one type, so that the comparisons
decided in place meet equal values, signed zeros and unset features often.
A third compiles and evaluates trees as high as the parser lets them be.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit import ContextStore, FeatureId, SceneElement, SceneModel, Vec3, eval_expr, parse_rules
from adaptkit.dsl import MAX_HEIGHT, BoolOp, Compare, Dist, FeatureRef, Lit, Not, SceneRef, compile_expr

FEATURES = [FeatureId.parse(f"env.f{i}") for i in range(4)]
ELEMENTS = ("e0", "e1", "ghost")  # ghost is missing until a change adds it
PROPS = ("position", "yaw", "visible", "text_size", "billboard")
OPS = ("<", "<=", ">", ">=", "==", "!=")

# small pools, so that comparisons often meet equal values and distances
# often equal a constant
small_floats = st.sampled_from([0.0, -0.0, 1.0, 2.0])
vec3s = st.builds(Vec3, small_floats, st.just(0.0), small_floats)
values = st.one_of(
    st.booleans(),
    st.integers(0, 2),
    small_floats,
    st.sampled_from(["a", "b"]),
    vec3s,
)
# a feature is unset (None) or holds any value type
feature_values = st.fixed_dictionaries({f: st.none() | values for f in FEATURES})

leaves = st.one_of(
    st.builds(Lit, values),
    st.builds(FeatureRef, st.sampled_from(FEATURES)),
    st.builds(SceneRef, st.sampled_from(ELEMENTS), st.sampled_from(PROPS)),
)


def _dist(feature: FeatureId, element: str, swap: bool) -> Dist:
    pair = (FeatureRef(feature), SceneRef(element, "position"))
    return Dist(*pair[::-1]) if swap else Dist(*pair)


def _compare(op: str, source, lit: Lit, mirrored: bool) -> Compare:
    return Compare(op, lit, source) if mirrored else Compare(op, source, lit)


# a source against a constant, either way round: with an ordering op and a
# number written second, these compile into atoms
sources = st.one_of(
    st.builds(FeatureRef, st.sampled_from(FEATURES)),
    st.builds(SceneRef, st.sampled_from(ELEMENTS), st.sampled_from(PROPS)),
    st.builds(_dist, st.sampled_from(FEATURES), st.sampled_from(ELEMENTS), st.booleans()),
)
atoms = st.builds(_compare, st.sampled_from(OPS), sources, st.builds(Lit, values), st.booleans())
exprs = st.recursive(
    st.one_of(leaves, atoms),
    lambda inner: st.one_of(
        st.builds(Compare, st.sampled_from(OPS), inner, inner),
        st.builds(BoolOp, st.sampled_from(("&&", "||")), inner, inner),
        st.builds(Not, inner),
        st.builds(Dist, inner, inner),
    ),
    max_leaves=6,
)


def _element(draw, element_id: str) -> SceneElement:
    # yaw and text_size as ints too: assigned directly, they are not floats
    number = st.one_of(small_floats, st.integers(0, 2))
    return SceneElement(
        id=element_id,
        position=draw(vec3s),
        yaw=draw(number),
        visible=draw(st.booleans()),
        text_size=draw(number),
        billboard=draw(st.booleans()),
    )


def _fill(store: ContextStore, features: dict) -> None:
    store._values.clear()  # values of any type, as the compiled reads must cope
    store._values.update({f: v for f, v in features.items() if v is not None})


def _outcome(fn):
    try:
        value = fn()
    except Exception as e:  # every exception must match, whatever its class
        return type(e).__name__, str(e)
    return "ok", type(value).__name__, repr(value)  # repr tells 0.0 from -0.0


@settings(max_examples=150, deadline=None)
@given(st.data(), exprs)
def test_compiled_matches_eval_expr(data, expr):
    store = ContextStore()
    _fill(store, data.draw(feature_values))
    scene = SceneModel([_element(data.draw, "e0"), _element(data.draw, "e1")])
    evaluate = compile_expr(expr, store, scene).evaluate
    assert _outcome(evaluate) == _outcome(lambda: eval_expr(expr, store, scene))

    # the compiled form reads the store and the elements as they are now,
    # and finds an element added after it was compiled
    _fill(store, data.draw(feature_values))
    for el in scene.elements():
        el.yaw = data.draw(st.one_of(small_floats, st.integers(0, 2)))
        el.visible = data.draw(st.booleans())
    if data.draw(st.booleans()):
        scene.add_element(_element(data.draw, "ghost"))
    assert _outcome(evaluate) == _outcome(lambda: eval_expr(expr, store, scene))


# operands of one type each; distances between the positions below are 0, 1,
# sqrt(2) or 2
same_type = st.sampled_from([
    st.integers(0, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.booleans(),
    st.sampled_from(["a", "b"]),
])
positions = st.builds(Vec3, st.sampled_from([0.0, 1.0]), st.just(0.0), st.sampled_from([0.0, 1.0, 2.0]))


@st.composite
def typed_atoms(draw, store: ContextStore, scene: SceneModel):
    op, mirrored = draw(st.sampled_from(OPS)), draw(st.booleans())
    kind = draw(st.sampled_from(("feature", "scene", "dist")))
    if kind == "feature":
        pool = draw(same_type)
        feature = draw(st.sampled_from(FEATURES))
        if draw(st.integers(0, 4)):  # else the feature stays unset
            store._values[feature] = draw(pool)
        source, const = FeatureRef(feature), draw(pool)
    elif kind == "scene":
        prop = draw(st.sampled_from(("yaw", "text_size", "visible", "billboard")))
        pool = st.booleans() if prop in ("visible", "billboard") else st.sampled_from([0.0, -0.0, 1.0, 2.0])
        setattr(scene.element("e0"), prop, draw(pool))
        source, const = SceneRef("e0", prop), draw(pool)
    else:
        feature = draw(st.sampled_from(FEATURES))
        if draw(st.integers(0, 4)):
            store._values[feature] = draw(positions)
        # an int constant too: the distance, a float, must meet a type error
        source, const = _dist(feature, "e0", draw(st.booleans())), draw(st.sampled_from([0.0, 1.0, 2.0, 1]))
    return _compare(op, source, Lit(const), mirrored)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_typed_atoms_match_eval_expr(data):
    store = ContextStore()
    scene = SceneModel([SceneElement(id="e0", position=data.draw(positions))])
    atom = typed_atoms(store, scene)
    shape = data.draw(st.sampled_from(("atom", "not", "&&", "||")))
    if shape == "atom":
        expr = data.draw(atom)
    elif shape == "not":
        expr = Not(data.draw(atom))
    else:
        expr = BoolOp(shape, data.draw(atom), data.draw(atom))
    evaluate = compile_expr(expr, store, scene).evaluate
    assert _outcome(evaluate) == _outcome(lambda: eval_expr(expr, store, scene))


def test_highest_expressions_compile_and_evaluate():
    store = ContextStore()
    store.set_feature(FEATURES[0], 2)
    store.set_feature(FeatureId.parse("env.flag"), True)
    scene = SceneModel([])
    for expr in (
        " && ".join(["env.f0 > 1"] * MAX_HEIGHT),
        " || ".join(["env.flag"] * MAX_HEIGHT) + " || !env.flag",
    ):
        (cond,) = parse_rules(f"condition c: {expr}\n").conditions
        evaluate = compile_expr(cond.expr, store, scene).evaluate
        assert evaluate() is eval_expr(cond.expr, store, scene) is True
