"""Seeded generators for the benchmark workloads.

Each generator returns a :class:`Workload`: the four input texts the
program reads (rules, scene, workflow, scenario) and a plain-Python model of
what they mean, written from the generator's own numbers. The checks in
``checks.py`` use that model, never the program's parser or evaluator.

Every generated value keeps a margin from every threshold it is compared
with (comparison constants and proximity radii), so the benchmark's own
arithmetic cannot disagree with the program's by rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

TAU = 2.0 * math.pi


@dataclass
class Workload:
    name: str
    rules: str
    scene: str
    workflow: str
    scenario: str
    # initial feature values (the t=0 block) and one dict of writes per event
    initial: dict
    events: list
    model: dict = field(default_factory=dict)


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes
    return random.Random(f"{name}:{seed}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _vec(v) -> str:
    return f"({_fmt(v[0])},{_fmt(v[1])},{_fmt(v[2])})"


def _scenario_text(name: str, initial: dict, events: list) -> str:
    lines = [f"scenario {name}"]
    for fid, value in initial.items():
        lines.append(f"at 0 set {fid} = {_value_text(value)}")
    for i, sets in enumerate(events, start=1):
        for fid, value in sets.items():
            lines.append(f"at {i * 10} set {fid} = {_value_text(value)}")
    return "\n".join(lines) + "\n"


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return _vec(value)
    return _fmt(value)


# ---------------------------------------------------------------------------
# wide_rules: many conditions over many features, few features per event

WIDE_FEATURES = 300
WIDE_CONDITIONS = 1000
WIDE_RULES = 1000
WIDE_ELEMENTS = 200
WIDE_EVENTS = 120

_OPS = ("<", "<=", ">", ">=")


def compare(op: str, a: float, b: float) -> bool:
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def gen_wide_rules(seed: int) -> Workload:
    """Feature values are half-integers and thresholds integers: margin 0.5."""
    rng = _rng("wide_rules", seed)
    feats = [f"env.s{i:03d}" for i in range(WIDE_FEATURES)]

    # fixed shares (30 % conjunctions, half the rules on two conditions,
    # 1-3 writes per event in turn) keep the work per event independent
    # of the seed; the seed picks which
    conjunctions = set(rng.sample(range(WIDE_CONDITIONS), WIDE_CONDITIONS * 3 // 10))
    conds = []  # (id, [(feature, op, threshold), ...]) joined by &&
    lines = []
    for i in range(WIDE_CONDITIONS):
        fs = rng.sample(feats, 2 if i in conjunctions else 1)
        terms = [(f, rng.choice(_OPS), rng.randint(10, 90)) for f in fs]
        cid = f"c{i:04d}"
        conds.append((cid, terms))
        expr = " && ".join(f"{f} {op} {t}.0" for f, op, t in terms)
        lines.append(f"condition {cid}: {expr}")

    elements = [f"e{i:03d}" for i in range(WIDE_ELEMENTS)]
    categories = ("Style", "ContentPresentation", "Modality", "Service", "VirtualWorld")
    rules = []  # (id, [condition ids])
    for j in range(WIDE_RULES):
        cids = [c[0] for c in rng.sample(conds, 1 + j % 2)]
        actions = []
        for el in rng.sample(elements, rng.randint(1, 2)):
            kind = rng.randrange(4)
            if kind == 0:
                actions.append(f"set_visible({el}, {rng.choice(('true', 'false'))})")
            elif kind == 1:
                actions.append(f"set_text_size({el}, {rng.randint(10, 30)})")
            elif kind == 2:
                actions.append(f"set_detail({el}, reduced)")
            else:
                actions.append(f"highlight({el}, ({rng.randrange(256)},{rng.randrange(256)},0))")
        rid = f"R{j:04d}"
        rules.append((rid, cids))
        lines.append(
            f"rule {rid} priority {rng.randint(0, 3)} when {', '.join(cids)} "
            f"do {'; '.join(actions)} category {rng.choice(categories)}"
        )
    rules_text = "# wide_rules: generated\n" + "\n".join(lines) + "\n"

    scene_lines = [
        f"element {el} at ({rng.randint(-20, 20)}.0,0.0,{rng.randint(-20, 20)}.0) text \"{el}\""
        for el in elements
    ]
    scene_lines.append('element instruction_panel at (0.0,1.5,0.0) billboard true text ""')
    scene_text = "\n".join(scene_lines) + "\n"

    wf_lines = ["workflow wide_guidance"]
    steps = rng.sample(conds, 4)
    for k, (cid, _) in enumerate(steps):
        wf_lines.append(f'step w{k} "Check panel {k}" target {elements[k]} until {cid} goto w{k + 1}')
    wf_lines.append('step w4 "All checks done" terminal')
    workflow_text = "\n".join(wf_lines) + "\n"

    def half():
        return rng.randrange(100) + 0.5

    readers = {f: [] for f in feats}
    for cid, terms in conds:
        for f, _, _ in terms:
            readers[f].append(terms)

    def holds(terms, values):
        return all(compare(op, values[f], t) for f, op, t in terms)

    initial = {f: half() for f in feats}
    initial["user.position"] = (0.0, 1.6, 3.0)
    values = dict(initial)
    events = []
    read = [f for f in feats if readers[f]]
    for e in range(WIDE_EVENTS):
        # the first write of every event flips at least one condition, so
        # every event runs the same two cycles whatever the seed
        sets = {}
        for f in rng.sample(read, len(read)):
            flips = [
                v + 0.5 for v in range(100)
                if any(holds(t, values) != holds(t, dict(values, **{f: v + 0.5})) for t in readers[f])
            ]
            if flips:
                sets[f] = rng.choice(flips)
                break
        for f in rng.sample(feats, e % 3):
            if f not in sets:
                v = half()
                while v == values[f]:
                    v = half()
                sets[f] = v
        values.update(sets)
        events.append(sets)

    return Workload(
        "wide_rules", rules_text, scene_text, workflow_text,
        _scenario_text("wide_rules", initial, events), initial, events,
        model={"conditions": conds, "rules": rules},
    )


# ---------------------------------------------------------------------------
# tracking_stream: an AR walk along an aisle at head-tracking rate

TRACK_STATIONS = 20
TRACK_SIGNS = 40
TRACK_MARKERS = 38
STATION_SPACING = 3.0
STATION_RADIUS = 1.0
SIGN_RADIUS = 2.5
SIGN_YAW_MIN = 3.2  # yaw above this: the user is still in front of the sign
FAR_RADIUS = 20.0
DARK_BELOW = 0.05
STEP_M = 0.05
EYE_Y = 1.6
DIST_MARGIN = 0.01
HORIZONTAL_MIN = 0.05  # keep clear of the undefined facing straight above a billboard


def dist(a, b) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def face_yaw(element, user) -> float:
    """Yaw that points an element's +z axis at the user, wrapped to [0, 2pi)."""
    return math.atan2(user[0] - element[0], user[2] - element[2]) % TAU


def gen_tracking_stream(seed: int) -> Workload:
    rng = _rng("tracking_stream", seed)
    stations = {f"station{k:02d}": (STATION_SPACING * k, 1.0, 1.0) for k in range(TRACK_STATIONS)}
    aisle_len = STATION_SPACING * TRACK_STATIONS
    signs = {
        f"sign{j:02d}": (
            aisle_len * (j + 0.5) / TRACK_SIGNS + rng.uniform(-0.3, 0.3),
            2.2,
            -1.5 + rng.uniform(-0.2, 0.2),
        )
        for j in range(TRACK_SIGNS)
    }
    markers = {
        f"marker{m:02d}": (rng.uniform(-3, aisle_len), 0.0, rng.uniform(2.5, 4.0))
        for m in range(TRACK_MARKERS)
    }
    console = (0.0, 1.0, -1.0)
    panel = (-1.0, 1.8, -0.8)
    billboards = dict(signs)
    billboards["instruction_panel"] = panel

    lines = [f"condition dark: env.luminance < {DARK_BELOW}"]
    lines.append(f"condition far_from_console: dist(user.position, scene.console.position) > {FAR_RADIUS}")
    for sid in stations:
        lines.append(
            f"condition at_{sid}: dist(user.position, scene.{sid}.position) < {STATION_RADIUS}"
        )
    for gid in signs:
        lines.append(
            f"condition reading_{gid}: dist(user.position, scene.{gid}.position) < {SIGN_RADIUS}"
            f" && scene.{gid}.yaw > {SIGN_YAW_MIN}"
        )
    lines.append("rule AudioOutRule when dark do set_modality(instruction_panel, audio) category Modality")
    lines.append(
        "rule FarDetailRule when far_from_console do set_detail(instruction_panel, reduced); "
        "set_text_size(instruction_panel, 24) category ContentPresentation"
    )
    marker_ids = list(markers)
    for j, gid in enumerate(signs):
        lines.append(
            f"rule Read_{gid} when reading_{gid} do set_text_size({gid}, 28); set_detail({gid}, full); "
            f"set_visible({marker_ids[j % len(marker_ids)]}, true) category Style"
        )
    for sid in stations:
        lines.append(
            f"rule Arrive_{sid} when at_{sid} do set_text({sid}, \"reached\") category ContentPresentation"
        )
    rules_text = "# tracking_stream: generated\n" + "\n".join(lines) + "\n"

    scene_lines = [f"element console at {_vec(console)}"]
    scene_lines.append(f'element instruction_panel at {_vec(panel)} billboard true text ""')
    scene_lines += [f'element {sid} at {_vec(p)} text "{sid}"' for sid, p in stations.items()]
    scene_lines += [
        f'element {gid} at {_vec(p)} billboard true detail reduced text "aisle {gid}"'
        for gid, p in signs.items()
    ]
    scene_lines += [f"element {mid} at {_vec(p)} visible false" for mid, p in markers.items()]
    scene_text = "\n".join(scene_lines) + "\n"

    sids = list(stations)
    wf_lines = ["workflow aisle_walk"]
    for k, sid in enumerate(sids):
        wf_lines.append(f'step leg{k:02d} "Walk to {sid}" target {sid} until at_{sid} goto leg{k + 1:02d}')
    wf_lines.append(f'step leg{len(sids):02d} "Route complete" terminal')
    workflow_text = "\n".join(wf_lines) + "\n"

    def clear_of_thresholds(p) -> bool:
        for s in stations.values():
            if abs(dist(p, s) - STATION_RADIUS) < DIST_MARGIN:
                return False
        for s in signs.values():
            if abs(dist(p, s) - SIGN_RADIUS) < DIST_MARGIN:
                return False
        for b in billboards.values():
            if math.hypot(p[0] - b[0], p[2] - b[2]) < HORIZONTAL_MIN:
                return False
        return abs(dist(p, console) - FAR_RADIUS) >= DIST_MARGIN

    # approach points sit inside each station's radius; the walk goes
    # straight from one to the next with a little head jitter
    approach = [(STATION_SPACING * k, EYE_Y, 0.3) for k in range(TRACK_STATIONS)]
    start = (-STATION_SPACING, EYE_Y, 0.3)
    walk = []
    prev = start
    for target in approach:
        n = max(1, round(dist(prev, target) / STEP_M))
        for i in range(1, n + 1):
            f = i / n
            base = tuple(prev[a] + (target[a] - prev[a]) * f for a in range(3))
            # widen the jitter until the point clears every threshold; the
            # approach point is 0.08 m inside its radius, so it stays inside
            scale = 0.01
            while True:
                p = tuple(round(base[a] + rng.uniform(-scale, scale), 4) for a in range(3))
                if clear_of_thresholds(p):
                    break
                scale = min(scale * 1.2, 0.04)
            walk.append(p)
        prev = target

    initial = {"env.luminance": 0.5, "user.position": start}
    events = []
    for i, p in enumerate(walk):
        sets = {"user.position": p}
        if i % 97 == 50:
            dark = rng.random() < 0.5
            sets["env.luminance"] = round(rng.uniform(0.0, 0.04) if dark else rng.uniform(0.1, 1.0), 4)
        events.append(sets)

    return Workload(
        "tracking_stream", rules_text, scene_text, workflow_text,
        _scenario_text("tracking_stream", initial, events), initial, events,
        model={"stations": stations, "billboards": billboards, "console": console},
    )


# ---------------------------------------------------------------------------
# cascade_churn: deep set_feature chains toggled on and off

# Chain depths are a seeded order of a fixed set, and every event toggles a
# fixed number of chains, so the work per event does not depend on the
# seed. The deepest chain needs depth + 1 <= 16 cycles.
CHURN_DEPTHS = (10, 11, 12, 13, 14, 14)
CHURN_TOGGLED = 5
CHURN_EVENTS = 100


def gen_cascade_churn(seed: int) -> Workload:
    rng = _rng("cascade_churn", seed)
    depths = rng.sample(CHURN_DEPTHS, len(CHURN_DEPTHS))
    lines = []
    scene_lines = []
    chain_features = []
    for c, depth in enumerate(depths):
        feats = [f"env.trig{c}"] + [f"env.ch{c}_{k}" for k in range(1, depth + 1)]
        chain_features.append(feats)
        for k in range(depth + 1):
            scene_lines.append(f'element p{c}_{k} at ({float(c)},{float(k)},2.0) text "idle"')
        for k in range(depth):
            src, dst = feats[k], feats[k + 1]
            here, nxt = f"p{c}_{k}", f"p{c}_{k + 1}"
            lines.append(f"condition up{c}_{k}: {src}")
            lines.append(f"condition down{c}_{k}: !{src}")
            # the raise rule writes the next panel's text too, so the next
            # stage overwrites it and its restore is skipped on the way down
            lines.append(
                f"rule Raise{c}_{k} priority {k % 3} when up{c}_{k} do set_feature({dst}, true); "
                f'set_visible({here}, true); set_text({here}, "on {c}.{k}"); set_text_size({here}, {20 + k}); '
                f"highlight({here}, (255,{10 * k},0)); set_detail({here}, full); set_modality({here}, visual, audio); "
                f'set_text({nxt}, "armed {c}.{k}"); set_text_size({nxt}, {40 + k}); highlight({nxt}, (0,0,{10 * k})) '
                "category Service"
            )
            lines.append(
                f"rule Drop{c}_{k} priority {k % 3} when down{c}_{k} do set_feature({dst}, false); "
                f'set_visible({here}, false); set_text({here}, "off {c}.{k}"); set_detail({here}, reduced); '
                f"clear_highlight({here}); set_text_size({here}, 12); set_modality({here}, visual); "
                f"set_detail({nxt}, reduced) category Service"
            )
    rules_text = "# cascade_churn: generated\n" + "\n".join(lines) + "\n"
    scene_lines.append('element instruction_panel at (0.0,1.5,-1.0) text ""')
    scene_lines.append("element beacon at (0.0,2.5,-2.0) billboard true")
    scene_text = "\n".join(scene_lines) + "\n"
    workflow_text = (
        "workflow churn_watch\n"
        'step raise0 "Raise chain 0" target p0_0 until up0_0 goto watch\n'
        'step watch "Watch the chains" terminal\n'
    )

    initial = {f: False for feats in chain_features for f in feats}
    initial["user.position"] = (0.0, 1.6, 3.0)
    state = [False] * len(depths)
    events = []
    cycles = []
    for _ in range(CHURN_EVENTS):
        toggled = rng.sample(range(len(depths)), CHURN_TOGGLED)
        sets = {}
        for c in sorted(toggled):
            state[c] = not state[c]
            sets[f"env.trig{c}"] = state[c]
        events.append(sets)
        # one stage per cycle down the deepest toggled chain, then a quiet cycle
        cycles.append(max(depths[c] for c in toggled) + 1)

    return Workload(
        "cascade_churn", rules_text, scene_text, workflow_text,
        _scenario_text("cascade_churn", initial, events), initial, events,
        model={"chain_features": chain_features, "cycles": cycles},
    )


GENERATORS = {
    "wide_rules": gen_wide_rules,
    "tracking_stream": gen_tracking_stream,
    "cascade_churn": gen_cascade_churn,
}
