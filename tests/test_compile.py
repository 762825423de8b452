"""Differential test: compiled expressions against eval_expr, the tree walk
in reference_eval.py, which shares no operator code with them.

Random trees of comparisons, ``&&``, ``||``, ``!`` and ``dist()`` -- typed
or not -- are compiled against a store and a scene and evaluated next to
eval_expr, before and after the store and scene change under them. Both
must return the same value, or raise the same exception class with the
same message. A second test draws comparisons of a source with a
constant, the shapes that compile into atoms and the same written the
other way round, with operands of one type, so that the comparisons
decided in place meet equal values, signed zeros and unset features often.
A third compiles and evaluates trees as high as the parser lets them be.
A table pins a value of each operator and every error evaluation can
raise, with the order in which errors win; the last tests pin that
compiling leaves no reference cycle, which ``&&`` chains it makes, and
that each operand's keys are what check_expr lists it reading.
"""

from __future__ import annotations

import collections
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit import (
    ContextStore,
    FeatureId,
    SceneElement,
    SceneModel,
    TypeMismatch,
    UnknownElement,
    UnknownFeature,
    UnknownProperty,
    Vec3,
    parse_rules,
    parse_scene,
)
from adaptkit.dsl import (
    MAX_HEIGHT, BoolOp, Compare, Dist, FeatureRef, Lit, Not, SceneRef, _conjuncts, check_expr, compile_expr,
)

from conftest import bench_gen, fixture_text
from reference_eval import eval_expr

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


def _table_world():
    store = ContextStore()
    for name, value in (
        ("i", 1), ("fl", 0.5), ("z", -0.0), ("t", "a"), ("b", True),
        ("v", Vec3(0, 0, 0)), ("w", Vec3(3, 4, 0)), ("vz", Vec3(0, 0, -0.0)),
    ):
        store.set_feature(FeatureId.parse(f"env.{name}"), value)
    scene = SceneModel([SceneElement(id="e0", position=Vec3(0, 0, 0)), SceneElement(id="e1", position=Vec3(0, 0, 0))])
    scene.element("e1").visible = 1  # assigned directly: no write checks it
    return store, scene


UNSET = (UnknownFeature, "feature env.unset was never set")
GHOST = (UnknownElement, "no element 'ghost' in scene")

# env.i = 1, env.fl = 0.5, env.z = -0.0, env.t = "a", env.b = true,
# env.v = (0,0,0), env.w = (3,4,0) and env.vz = (0,0,-0.0); env.unset is
# never set, no element ghost exists, and e1.visible holds the int 1
OUTCOMES = [
    # a value of each operator, compiled as an atom or not
    ("env.i != 1", False),
    ("env.i != 2", True),
    ("env.i == 1", True),
    ("env.fl == 0.5", True),
    # equality is bitwise on floats, so a signed zero is not the other zero
    ("env.z == 0.0", False),
    ("env.z != 0.0", True),
    ("env.z == -0.0", True),
    ("env.v == env.vz", False),
    ("env.vz == env.vz", True),
    ('"a" == env.t', True),
    ("1 < env.i", False),
    ("1 <= env.i", True),
    ("env.i < 0 || env.i > 0", True),
    ("env.i < 0 && env.i > 0", False),
    ("env.b || env.i < 0", True),
    ("env.b && env.i < 0", False),
    ("!(env.i < 0)", True),
    ("dist(env.v, env.w) == 5.0", True),
    ("dist(env.w, scene.e0.position) < 5.0", False),
    # every error a node raises
    ("env.i == env.t", (TypeMismatch, "cannot compare int with text")),
    ("env.t < 1", (TypeMismatch, "cannot compare text with int")),
    ("env.i < 1.0", (TypeMismatch, "cannot compare int with float")),
    ("env.b == 1", (TypeMismatch, "cannot compare bool with int")),
    ("env.t < env.t", (TypeMismatch, "ordering comparison needs numbers, got text")),
    ("env.b > env.b", (TypeMismatch, "ordering comparison needs numbers, got bool")),
    ("env.i && env.b", (TypeMismatch, "&& needs bool operands")),
    ("env.b || env.i", (TypeMismatch, "|| needs bool operands")),
    ("!env.i", (TypeMismatch, "! needs a bool operand")),
    ("dist(env.i, env.v) < 1.0", (TypeMismatch, "dist() needs two vec3 values")),
    ("dist(env.i, scene.e0.position) < 1.0", (TypeMismatch, "dist() needs two vec3 values")),
    ("env.unset", UNSET),
    ("env.unset < 1", UNSET),
    ("scene.ghost.visible", GHOST),
    ("scene.ghost.yaw < 1.0", GHOST),
    ("dist(env.v, scene.ghost.position) < 1.0", GHOST),
    (SceneRef("e0", "bogus"), (UnknownProperty, "e0 has no property 'bogus'")),
    # both operands raise: the left error wins
    ("env.unset == scene.ghost.visible", UNSET),
    ("scene.ghost.visible == env.unset", GHOST),
    ("env.unset && scene.ghost.visible", UNSET),
    ("scene.ghost.visible || env.unset", GHOST),
    ("dist(env.unset, scene.ghost.position) < 1.0", UNSET),
    # the left operand is of the wrong type and the right one raises: both
    # are evaluated before the node checks them, so the right error wins
    ("env.i && env.unset", UNSET),
    ("env.i || scene.ghost.visible", GHOST),
    ("env.i && env.unset < 1", UNSET),
    ("env.t < env.unset", UNSET),
    ("env.t == scene.ghost.yaw", GHOST),
    ("dist(env.i, env.unset) < 1.0", UNSET),
    ("!(env.i && env.unset)", UNSET),
    # a scene reference's static type holds only for what its writes check:
    # scene.e1.visible is not taken for a bool, so the && checks it
    ("scene.e1.visible && env.i < 1", (TypeMismatch, "&& needs bool operands")),
]


def _expected(outcome) -> tuple:
    if isinstance(outcome, tuple):
        return outcome[0].__name__, outcome[1]
    return "ok", "bool", repr(outcome)


@pytest.mark.parametrize("expr, outcome", OUTCOMES, ids=[str(e) for e, _ in OUTCOMES])
def test_compiled_values_and_errors_match_the_reference(expr, outcome):
    if isinstance(expr, str):
        (cond,) = parse_rules(f"condition c: {expr}\n").conditions
        expr = cond.expr
    store, scene = _table_world()
    evaluate = compile_expr(expr, store, scene).evaluate
    assert _outcome(lambda: eval_expr(expr, store, scene)) == _expected(outcome)
    assert _outcome(evaluate) == _expected(outcome)


def test_compiling_leaves_no_reference_cycle():
    """Every node shape, atoms and a missing element's dist() included,
    compiles into objects reference counting frees: a collection after
    ``del`` finds none."""
    store, scene = _table_world()
    exprs = [
        cond.expr
        for cond in parse_rules(
            "condition a: env.i == 1 || !(scene.e0.visible) && env.fl < 1.0 && env.t == \"a\"\n"
            "condition b: dist(env.v, scene.e0.position) < 1.0 && scene.e0.yaw > 0.5 && !env.b\n"
            "condition c: dist(env.v, scene.ghost.position) < 1.0 || dist(env.v, env.w) >= 5.0\n"
            "condition d: true || 1 < env.i && (env.b || env.i > 0)\n"
            "condition e: env.b\n"
        ).conditions
    ]
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep whatever a collection frees in gc.garbage
    try:
        gc.garbage.clear()
        compiled = [compile_expr(expr, store, scene, {}) for expr in exprs]
        assert any(len(k.operands) > 1 for k in compiled)
        assert any(operand.gates for k in compiled for operand in k.operands)
        del compiled
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _chain_shapes(rules_text: str, scene_text: str) -> dict:
    """How many conditions compile to each shape: for each operand, left to
    right, its key count and its gate count."""
    rules, scene, store = parse_rules(rules_text), parse_scene(scene_text), ContextStore()
    shapes = collections.Counter()
    for cond in rules.conditions:
        k = compile_expr(cond.expr, store, scene)
        shapes[tuple((len(operand.keys), len(operand.gates)) for operand in k.operands)] += 1
    return dict(shapes)


def test_the_compiled_chains_stay_as_they_are():
    """The operands the engine indexes each condition by, and the dist()
    atoms that gate them, for the shipped fixtures and the benchmark's
    workloads at seed 1. A dist() atom's element position is a key no
    write reaches."""
    for base, shapes in (
        ("printer/printer", {((1, 0),): 3, ((1, 1),): 1}),
        ("warehouse/warehouse", {((1, 0),): 3, ((1, 1),): 4}),
        ("cascade/chain", {((1, 0),): 2}),
        ("cascade/oscillator", {((1, 0),): 2}),
    ):
        assert _chain_shapes(fixture_text(base + ".rules"), fixture_text(base + ".scene")) == shapes, base
    gen = bench_gen()
    for name, shapes in (
        ("wide_rules", {((1, 0),): 700, ((1, 0), (1, 0)): 300}),
        ("tracking_stream", {((1, 0),): 1, ((1, 1),): 21, ((1, 1), (1, 0)): 40}),
        ("cascade_churn", {((1, 0),): 148}),
    ):
        workload = getattr(gen, f"gen_{name}")(1)
        assert _chain_shapes(workload.rules, workload.scene) == shapes, name


def test_the_operand_keys_are_what_check_expr_lists():
    """compile_expr lists an operand's reads as it compiles it. They must be
    what check_expr's walk lists for that operand, less the features its
    gates stand for, each once, in reading order: for every condition of
    the fixtures and of the benchmark's workloads at seeds 1-3."""
    texts = [
        (fixture_text(base + ".rules"), fixture_text(base + ".scene"))
        for base in ("printer/printer", "warehouse/warehouse", "cascade/chain", "cascade/oscillator")
    ]
    gen = bench_gen()
    for name in ("wide_rules", "tracking_stream", "cascade_churn"):
        for seed in (1, 2, 3):
            workload = getattr(gen, f"gen_{name}")(seed)
            texts.append((workload.rules, workload.scene))
    checked = 0
    for rules_text, scene_text in texts:
        rules, scene, store = parse_rules(rules_text), parse_scene(scene_text), ContextStore()
        for cond in rules.conditions:
            nodes = _conjuncts(cond.expr)
            operands = compile_expr(cond.expr, store, scene).operands
            assert len(operands) == len(nodes), cond.id
            for node, operand in zip(nodes, operands):
                gated = {gate.feature for gate in operand.gates}
                keys = tuple(dict.fromkeys(r for r in check_expr(node)[1] if r not in gated))
                assert operand.keys == keys, cond.id
                checked += 1
    assert checked > 3000
