"""Differential tests: the dependency-driven Engine against NaiveEngine, the
loop that evaluates every condition and checks every rule in each cycle.

Random rule sets, scenes and workflows are generated as text, in the
manner of the benchmark's generators, and parsed twice so that each engine
owns its scene and store. Both then see the same events and the same
writes and calls between events, and must agree on every outcome, on the
whole rendered trace, and on conditions, rule activity, scene, store and
workflow after every step -- including after NonQuiescent and ActionError.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit import AdaptError, ContextStore, Engine, FeatureId, Vec3, parse_rules, parse_scene, parse_workflow
from adaptkit.values import render_value

from conftest import assert_same_lines, scene_state, scene_states_equal
from naive_engine import NaiveEngine

FLOATS = ("env.f0", "env.f1", "env.f2")
BOOLS = ("env.b0", "env.b1", "env.b2")
FEATURES = FLOATS + BOOLS + ("env.t0", "user.position")
ELEMENTS = ("e0", "e1", "e2", "e3")
WORDS = ("a", "b")
OPS = ("<", "<=", ">", ">=", "==", "!=")


def _value(rng: random.Random, feature: str):
    if feature in FLOATS:
        return rng.randrange(6) + 0.5
    if feature in BOOLS:
        return rng.random() < 0.5
    if feature == "env.t0":
        return rng.choice(WORDS)
    return Vec3(float(rng.randint(-3, 3)), 1.6, float(rng.randint(-3, 3)))


def _atom(rng: random.Random, elements) -> str:
    el = rng.choice(elements)
    kind = rng.randrange(10)
    if kind == 0:
        return f"{rng.choice(FLOATS)} {rng.choice(OPS)} {rng.randint(0, 6)}.0"
    if kind == 1:
        return rng.choice(BOOLS)
    if kind == 2:
        return f"{rng.choice(BOOLS)} == {rng.choice(('true', 'false'))}"
    if kind == 3:
        return f"scene.{el}.visible"
    if kind == 4:
        return f"scene.{el}.billboard == true"
    if kind == 5:
        return f'scene.{el}.text == "{rng.choice(WORDS)}"'
    if kind == 6:
        return f"scene.{el}.yaw {rng.choice(('<', '>'))} {rng.choice(('1.0', '3.0', '5.0'))}"
    if kind == 7:
        return f"dist(user.position, scene.{el}.position) < {rng.randint(1, 5)}.0"
    if kind == 8:  # the position read directly: no dist() atom gates an operand this is in
        return f"user.position != ({rng.randint(-3, 3)}.0,1.6,{rng.randint(-3, 3)}.0)"
    return f'env.t0 == "{rng.choice(WORDS)}"'


def _expr(rng: random.Random, elements, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.4:
        return _atom(rng, elements)
    kind = rng.randrange(3)
    if kind == 0:
        return f"!({_expr(rng, elements, depth - 1)})"
    op = "&&" if kind == 1 else "||"
    return f"({_expr(rng, elements, depth - 1)}) {op} ({_expr(rng, elements, depth - 1)})"


def _action(rng: random.Random, elements) -> str:
    el = rng.choice(elements)
    kind = rng.randrange(9)
    if kind == 0:
        return f"set_visible({el}, {rng.choice(('true', 'false'))})"
    if kind == 1:
        return f'set_text({el}, "{rng.choice(WORDS)}")'
    if kind == 2:
        return f"set_billboard({el}, {rng.choice(('true', 'false'))})"
    if kind == 3:
        return f"set_text_size({el}, {rng.choice((10, 20))})"
    if kind == 4:
        return f"highlight({el}, (255,{rng.randrange(2)},0))"
    if kind == 5:
        return f"clear_highlight({el})"
    if kind in (6, 7):
        return f"set_feature({rng.choice(BOOLS)}, {rng.choice(('true', 'false'))})"
    return f"set_feature({rng.choice(FLOATS)}, {rng.randrange(6) + 0.5})"


def gen_texts(rng: random.Random) -> tuple[str, str, str | None]:
    """Rules, scene and (half of the time) workflow text."""
    with_workflow = rng.random() < 0.5
    elements = ELEMENTS + (("instruction_panel",) if with_workflow else ())
    n_conds = rng.randint(2, 10)
    lines = [f"condition c{i}: {_expr(rng, elements)}" for i in range(n_conds)]
    for j in range(rng.randint(1, 10)):
        conds = rng.sample(range(n_conds), min(n_conds, rng.randint(1, 2)))
        actions = [_action(rng, elements) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.05:
            # a feature write of the wrong type fails in the middle of the rule
            actions.append(f"set_feature({rng.choice(BOOLS)}, 2.5)")
        lines.append(
            f"rule R{j} priority {rng.randint(0, 2)} when {', '.join(f'c{i}' for i in conds)} "
            f"do {'; '.join(actions)} category Style"
        )
    rules_text = "\n".join(lines) + "\n"

    scene_lines = []
    for el in ELEMENTS:
        scene_lines.append(
            f"element {el} at ({rng.randint(-3, 3)}.0,0.0,{rng.randint(-3, 3)}.0)"
            f" yaw {rng.choice(('0.0', '2.0', '4.0'))} visible {rng.choice(('true', 'false'))}"
            f' text "{rng.choice(WORDS)}" billboard {rng.choice(("true", "false"))}'
        )
    workflow_text = None
    if with_workflow:
        scene_lines.append('element instruction_panel at (0.0,1.5,0.0) text ""')
        n_steps = rng.randint(2, 4)
        wf = ["workflow wf"]
        for k in range(n_steps - 1):
            guard = ""
            if rng.random() < 0.4:
                guard = f" on c{rng.randrange(n_conds)} goto w{rng.randrange(n_steps)}"
            wf.append(
                f'step w{k} "{rng.choice(WORDS)}" target {rng.choice(ELEMENTS)}'
                f" until c{rng.randrange(n_conds)}{guard} goto w{k + 1}"
            )
        wf.append(f'step w{n_steps - 1} "{rng.choice(WORDS)}" terminal')
        workflow_text = "\n".join(wf) + "\n"
    return rules_text, "\n".join(scene_lines) + "\n", workflow_text


def _outcome(fn):
    try:
        result = fn()
    except AdaptError as e:
        return type(e).__name__, str(e)
    return "ok", result


def _state(engine: Engine):
    trace = engine.trace
    return (
        trace.render(),
        [trace.events[i] for i in range(-len(trace), 0)],  # each line's numbers, read by index
        dict(engine.cond_last),
        {r.id: engine.rule_active(r.id) for r in engine.rules.rules},
        [(str(k), render_value(engine.store.get_feature(k))) for k in engine.store.keys()],
        engine.workflow.current_id if engine.workflow is not None else None,
    )


def _assert_same(fast: Engine, naive: Engine) -> None:
    assert_same_lines(fast.trace.render(), naive.trace.render())
    assert _state(fast) == _state(naive)
    assert scene_states_equal(scene_state(fast.scene), scene_state(naive.scene))


def _build(cls, texts, initial, depth):
    rules_text, scene_text, workflow_text = texts
    store = ContextStore()
    for key, value in initial:
        store.set_feature(FeatureId.parse(key), value)
    wf = parse_workflow(workflow_text) if workflow_text else None
    return cls(parse_rules(rules_text), parse_scene(scene_text), store, wf, depth)


def _between_events(rng: random.Random, engines) -> None:
    """Writes and calls a library user may make between two events."""
    rules = engines[0].rules
    kind = rng.randrange(4)
    feature = rng.choice(FEATURES)
    value = _value(rng, feature)
    if kind == 0:
        step = lambda e: e.store.set_feature(FeatureId.parse(feature), value)
    elif kind == 1:
        el = rng.choice(ELEMENTS)
        prop, value = rng.choice(
            (("visible", rng.random() < 0.5), ("text", rng.choice(WORDS)),
             ("billboard", rng.random() < 0.5), ("yaw", rng.choice((0.5, 2.5, 4.5))))
        )
        step = lambda e: e.scene.write_property(el, prop, value, writer="caller")
    elif kind == 2:  # a feature write that only a poll of every condition sees
        step = lambda e: (
            e.store.set_feature(FeatureId.parse(feature), value),
            [e.evaluate_condition(c.id) for c in rules.conditions],
        )
    else:
        rid = rng.choice(rules.rules).id
        step = lambda e: (e.unexecute_rule if e.rule_active(rid) else e.execute_rule)(rid)
    outcomes = [_outcome(lambda: step(e)) for e in engines]
    assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_engine_matches_naive_loop(rng):
    texts = gen_texts(rng)
    features = list(FEATURES)
    if rng.random() < 0.2:
        features.remove(rng.choice(features))  # E0 fails until an event sets it
    initial = [(f, _value(rng, f)) for f in features]
    depth = rng.randint(3, 8)
    engines = [_build(cls, texts, initial, depth) for cls in (Engine, NaiveEngine)]

    outcomes = [_outcome(lambda: e.process_event([])) for e in engines]
    assert outcomes[0] == outcomes[1]
    _assert_same(*engines)
    for _ in range(rng.randint(2, 8)):
        for _ in range(rng.choice((0, 1, 2, 3))):
            _between_events(rng, engines)
            _assert_same(*engines)
        sets = [(FeatureId.parse(f), _value(rng, f)) for f in rng.sample(FEATURES, rng.randint(1, 3))]
        outcomes = [_outcome(lambda: e.process_event(list(sets))) for e in engines]
        assert outcomes[0] == outcomes[1]
        _assert_same(*engines)


# ---------------------------------------------------------------------------
# Distance thresholds and billboards under adversarial positions: the user
# stands within 1e-12 of a radius, far enough out for distances to overflow,
# on signed zeros level with a billboard, and walks in many tiny steps, while
# rules and callers write billboard flags and yaws between the re-aims.

USER = FeatureId.parse("user.position")
COORDS = (0.0, -0.0, 1.0, 2.5, -3.0)
HUGE = (1e154, -1e154, 1e300, -1e300)
RADII = (0.5, 1.0, 2.0, 3.5, 1e154, 2e154)
NUDGES = (0.0, 1e-12, -1e-12, 5e-13, -5e-13, 1e-9, -1e-9)
DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0), (0.6, 0.0, 0.8))


def _element_positions(rng: random.Random) -> dict[str, tuple]:
    out = {}
    for el in ELEMENTS:
        if rng.random() < 0.1:
            out[el] = (rng.choice(HUGE), 0.0, rng.choice(COORDS))
        else:
            out[el] = (rng.choice(COORDS), rng.choice((0.0, 1.6)), rng.choice(COORDS))
    return out


def _dist_atom(rng: random.Random) -> str:
    op = rng.choice(("<", "<=", ">", ">="))
    return f"dist(user.position, scene.{rng.choice(ELEMENTS)}.position) {op} {rng.choice(RADII)!r}"


def _threshold_expr(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind <= 1:
        return _dist_atom(rng)
    if kind == 2:
        return f"{_dist_atom(rng)} && scene.{rng.choice(ELEMENTS)}.yaw > {rng.choice(('1.0', '3.2', '5.0'))}"
    if kind == 3:
        return f"{_dist_atom(rng)} && ({_dist_atom(rng)})"
    if kind == 4:
        return f"!({_dist_atom(rng)}) || {rng.choice(BOOLS)}"
    if kind == 5:  # reads the position outside dist() as well
        return f"{_dist_atom(rng)} && user.position != (1.0,1.6,1.0)"
    return f"{rng.choice(RADII)!r} > dist(user.position, scene.{rng.choice(ELEMENTS)}.position)"


def _threshold_action(rng: random.Random) -> str:
    el = rng.choice(ELEMENTS)
    kind = rng.randrange(4)
    if kind <= 1:
        return f"set_billboard({el}, {rng.choice(('true', 'false'))})"
    if kind == 2:
        return f"set_visible({el}, {rng.choice(('true', 'false'))})"
    return f"set_feature({rng.choice(BOOLS)}, {rng.choice(('true', 'false'))})"


def gen_threshold_texts(rng: random.Random, positions: dict) -> tuple[str, str, None]:
    n_conds = rng.randint(2, 8)
    lines = [f"condition c{i}: {_threshold_expr(rng)}" for i in range(n_conds)]
    for j in range(rng.randint(1, 6)):
        conds = rng.sample(range(n_conds), min(n_conds, rng.randint(1, 2)))
        actions = [_threshold_action(rng) for _ in range(rng.randint(1, 2))]
        lines.append(
            f"rule R{j} priority {rng.randint(0, 2)} when {', '.join(f'c{i}' for i in conds)} "
            f"do {'; '.join(actions)} category Style"
        )
    scene = [
        f"element {el} at ({x!r},{y!r},{z!r}) yaw {rng.choice(('0.0', '2.0', '4.0'))}"
        f" billboard {rng.choice(('true', 'false'))}"
        for el, (x, y, z) in positions.items()
    ]
    return "\n".join(lines) + "\n", "\n".join(scene) + "\n", None


def _near(rng: random.Random, positions: dict, prev: Vec3) -> Vec3:
    """A user position chosen to sit on an edge case."""
    kind = rng.randrange(5)
    px, py, pz = positions[rng.choice(ELEMENTS)]
    if kind == 0:  # within 1e-12 of a radius, either side, or well inside it
        r = rng.choice(RADII) * rng.choice((1.0, 1.0, 0.5, 0.75)) + rng.choice(NUDGES)
        dx, dy, dz = rng.choice(DIRECTIONS)
        sign = rng.choice((1.0, -1.0))
        return Vec3(px + sign * r * dx, py + sign * r * dy, pz + sign * r * dz)
    if kind == 1:  # far out: squared distances overflow
        return Vec3(rng.choice(HUGE + COORDS), rng.choice((1.6,) + HUGE), rng.choice(HUGE + COORDS))
    if kind == 2:  # signed zeros level with a billboard
        return Vec3(rng.choice((0.0, -0.0)), rng.choice((py, 1.6)), rng.choice((0.0, -0.0, pz, pz + 1.0)))
    if kind == 3:  # a tiny step
        size = rng.choice((1e-13, 1e-9, 1e-3))
        return Vec3(prev.x + size * rng.choice((1, -1)), prev.y, prev.z + size * rng.choice((1, 0, -1)))
    return Vec3(float(rng.randint(-4, 4)), 1.6, float(rng.randint(-4, 4)))


def _walk(rng: random.Random, positions: dict, start: Vec3) -> list[Vec3]:
    """Many small steps from ``start`` straight towards an element and past it."""
    px, _, pz = positions[rng.choice(ELEMENTS)]
    if max(abs(px), abs(pz), abs(start.x), abs(start.z)) > 10.0:
        return []
    step = rng.choice((0.05, 0.01, 1e-7))
    n = rng.randint(20, 60)
    dx, dz = px - start.x, pz - start.z
    norm = max((dx * dx + dz * dz) ** 0.5, 1e-9)
    return [Vec3(start.x + dx / norm * step * k, start.y, start.z + dz / norm * step * k) for k in range(1, n + 1)]


def _between_threshold_events(rng: random.Random, engines, positions: dict, prev: Vec3) -> None:
    rules = engines[0].rules
    kind = rng.randrange(4)
    el = rng.choice(ELEMENTS)
    if kind == 0:  # a caller turns a billboard away
        yaw = rng.choice((0.5, 2.5, 4.5))
        step = lambda e: e.scene.write_property(el, "yaw", yaw, writer="caller")
    elif kind == 1:
        flag = rng.random() < 0.5
        step = lambda e: e.scene.write_property(el, "billboard", flag, writer="caller")
    elif kind == 2:  # a position write that only a poll of every condition sees
        pos = _near(rng, positions, prev)
        step = lambda e: (
            e.store.set_feature(USER, pos),
            [e.evaluate_condition(c.id) for c in rules.conditions],
        )
    else:
        pos = _near(rng, positions, prev)
        step = lambda e: e.store.set_feature(USER, pos)
    outcomes = [_outcome(lambda: step(e)) for e in engines]
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_engine_matches_naive_loop_at_distance_edges(rng):
    positions = _element_positions(rng)
    texts = gen_threshold_texts(rng, positions)
    start = Vec3(0.0, 1.6, 0.0)
    initial = [(f, _value(rng, f)) for f in BOOLS] + [("user.position", start)]
    engines = [_build(cls, texts, initial, 6) for cls in (Engine, NaiveEngine)]
    outcomes = [_outcome(lambda: e.process_event([])) for e in engines]
    assert outcomes[0] == outcomes[1]
    _assert_same(*engines)

    prev = start
    for _ in range(rng.randint(2, 6)):
        for _ in range(rng.choice((0, 1, 2))):
            _between_threshold_events(rng, engines, positions, prev)
            _assert_same(*engines)
        prev = engines[0].store.get_feature(USER)
        moves = _walk(rng, positions, prev) if rng.random() < 0.3 else [_near(rng, positions, prev)]
        for pos in moves:
            sets = [(USER, pos)]
            if rng.random() < 0.2:
                sets.append((FeatureId.parse(rng.choice(BOOLS)), rng.random() < 0.5))
            outcomes = [_outcome(lambda: e.process_event(list(sets))) for e in engines]
            assert outcomes[0] == outcomes[1]
        _assert_same(*engines)
        prev = engines[0].store.get_feature(USER)


def test_far_thresholds_match_naive_loop():
    """Radii so large that the distances the user walks through overflow
    the float range part of the way; the thresholds must not be skipped
    on the strength of a slack the overflow makes void."""
    rules = "".join(
        f"condition c{i}: dist(user.position, scene.e0.position) {op} {r!r}\n"
        f"rule R{i} when c{i} do set_visible(e{i % 3 + 1}, false) category Style\n"
        for i, (op, r) in enumerate((("<", 2e154), (">=", 1e154), ("<=", 1.3e154), (">", 1e300)))
    )
    scene = "".join(f"element e{k} at (0.0,0.0,0.0) billboard true\n" for k in range(4))
    walk = [1e154, 1.2e154, 1.5e154, 1.9e154, 2.1e154, 1e300, 1.4e154, 0.5e154, -1.5e154, 0.0]
    engines = [_build(cls, (rules, scene, None), [("user.position", Vec3(0.0, 1.6, 0.0))], 6)
               for cls in (Engine, NaiveEngine)]
    for x in [None] + walk:
        sets = [] if x is None else [(USER, Vec3(x, 1.6, 0.0))]
        outcomes = [_outcome(lambda: e.process_event(list(sets))) for e in engines]
        assert outcomes[0] == outcomes[1]
        _assert_same(*engines)


# ---------------------------------------------------------------------------
# The PROP line cache at one write site: a restore of the one text a rule
# writes goes back to whichever text a caller left before it executed, and
# a feature write replaces 0.0, -0.0 or 1.0, which render apart although
# two of them are equal.

LINE_CACHE_RULES = 'condition on: env.b0\nrule R when on do set_text(e0, "b"); set_feature(env.f0, 1.0) category Style\n'
LINE_CACHE_SCENE = 'element e0 at (0.0,0.0,0.0) text "a"\n'


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((None, "a", "b", "c")), st.sampled_from((None, 0.0, -0.0, 1.0))),
                min_size=1, max_size=12))
def test_line_cache_matches_naive_loop(steps):
    texts = (LINE_CACHE_RULES, LINE_CACHE_SCENE, None)
    engines = [_build(cls, texts, [("env.b0", False), ("env.f0", 0.0)], 4) for cls in (Engine, NaiveEngine)]
    for e in engines:
        e.process_event([])
    for i, (text, f0) in enumerate(steps):
        if text is not None:
            for e in engines:
                e.scene.write_property("e0", "text", text, writer="caller")
        events = [[(FeatureId.parse("env.f0"), f0)]] if f0 is not None else []
        events.append([(FeatureId.parse("env.b0"), i % 2 == 0)])  # the rule toggles
        for sets in events:
            outcomes = [_outcome(lambda: e.process_event(list(sets))) for e in engines]
            assert outcomes[0] == outcomes[1]
        _assert_same(*engines)


# ---------------------------------------------------------------------------
# A false && operand keeps its chain from being evaluated while the inputs
# of the other operands change. Here the first operand of each chain, a
# dist() atom or a feature atom, is false most of the time, while the
# operands after it read inputs written in every event: the yaw of a
# billboard the re-aim turns, a yaw a caller turns between events, and a
# flag two rules write in turn. The user walks across the distance
# threshold and back, so a chain held by its dist() operand must wake when
# the atom passes its deadline, and some events write the inputs of both
# operands at once. Two operands of ``band`` read one feature.

CHAIN_RULES = """\
condition tick: env.f1 > 2.5
condition tock: env.f1 < 2.5
condition near_aim: dist(user.position, scene.e0.position) < 2.0 && scene.e1.yaw > 3.0
condition near_turn: dist(user.position, scene.e0.position) < 2.0 && scene.e2.yaw > 3.0
condition near_flag: dist(user.position, scene.e0.position) < 2.0 && env.b0 == true
condition hot_turn: env.f0 > 3.0 && scene.e2.yaw > 3.0
condition hot_flag: env.f0 > 3.0 && env.b0 == true
condition hot_all: env.f0 > 3.0 && scene.e1.yaw > 3.0 && env.b0 == true && dist(user.position, scene.e0.position) < 2.0
condition band: env.f0 > 3.0 && env.f0 < 5.0 && env.b0 == true
rule Up when tick do set_feature(env.b0, true) category Style
rule Down when tock do set_feature(env.b0, false) category Style
rule Aim when near_aim do set_visible(e3, true) category Style
rule Turn when near_turn, hot_flag do set_text(e3, "b") category Style
rule All when hot_all do set_text_size(e3, 30) category Style
"""
CHAIN_SCENE = """\
element e0 at (0.0,0.0,0.0)
element e1 at (0.0,0.0,-3.0) yaw 0.0 billboard true
element e2 at (5.0,0.0,5.0) yaw 4.0
element e3 at (-5.0,0.0,5.0) visible false text "a"
"""


def _chain_events():
    """(sets, caller's e2 yaw) per event: the user walks x from -4 to 4 and
    back, in steps of 0.25 m with a 0.1 m sway in z."""
    xs = [-4.0 + 0.25 * k for k in range(33)]
    walk = xs + xs[::-1]
    events = []
    for k, x in enumerate(walk):
        sets = [(USER, Vec3(x, 1.6, 0.1 * (k % 2))), (FeatureId.parse("env.f1"), 3.5 if k % 2 else 1.5)]
        if k % 11 == 5:  # both operands of hot_flag and of near_flag in one event
            sets += [(FeatureId.parse("env.f0"), 4.0 if k % 22 == 5 else 2.0),
                     (FeatureId.parse("env.b0"), k % 3 == 0)]
        events.append((sets, 2.0 if k % 3 else 4.0))
    return events


def test_false_operand_blocks_its_chain_like_the_naive_loop():
    initial = [("env.f0", 2.0), ("env.f1", 1.5), ("env.b0", False), ("user.position", Vec3(-4.0, 1.6, 0.0))]
    engines = [_build(cls, (CHAIN_RULES, CHAIN_SCENE, None), initial, 8) for cls in (Engine, NaiveEngine)]
    for e in engines:
        e.process_event([])
    _assert_same(*engines)
    for sets, yaw in _chain_events():
        for e in engines:
            e.scene.write_property("e2", "yaw", yaw, writer="caller")
        outcomes = [_outcome(lambda: e.process_event(list(sets))) for e in engines]
        assert outcomes[0] == outcomes[1]
        _assert_same(*engines)
