"""Differential tests: the scene, workflow and scenario parsers against
reference_formats.py, readers written from the README with their own
cursor.

Texts are drawn line by line from each format's parts, valid or not:
ids that are no identifier, values of every type, attributes and clauses
repeated, left out or out of order, and now and then a token dropped,
doubled or a stray one put in. On each text both sides must give the same
result, field by field, or raise the same error class with the same
message and line. Every message either side raises must be one of its
format's ``MESSAGES``, and a table per format meets each of them.
"""

from __future__ import annotations

import enum
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_formats
from adaptkit.scenario import parse_scenario
from adaptkit.scene import parse_scene
from adaptkit.values import Vec3
from adaptkit.workflow import parse_workflow
from reference_formats import SCENE_FIELDS, STEP_FIELDS
from test_parse import _outcome

LEXER_MESSAGES = [r"unexpected character .*", r"unterminated string, .*", r"number out of range: .*",
                  r"unexpected end of line"]
MESSAGES = {
    "scene": LEXER_MESSAGES + [
        r"expected 'element', got .*", r"expected an element id, got .*",
        r"expected: element <id> at \(x,y,z\) \.\.\.", r"expected position \(x,y,z\)",
        r"duplicate attribute .*", r"attribute .* needs a value", r"unknown detail level .*",
        r"unknown modality in .*", r"attribute '(visible|billboard)': expected bool",
        r"attribute 'text': expected text", r"attribute '(yaw|text_size)': expected a number",
        r"attribute 'text_size': text_size must be a positive finite number", r"unknown attribute .*",
        r"duplicate element id .*",
    ],
    "workflow": LEXER_MESSAGES + [
        r"duplicate 'workflow' header", r"expected a workflow id, got .*", r"trailing input after workflow id: .*",
        r"expected 'workflow' or 'step', got .*", r"'workflow <id>' header must come first",
        r"expected a step id, got .*", r"step needs a quoted instruction", r"expected an element id, got .*",
        r"expected a condition id, got .*", r"expected 'goto' after the guard",
        r"trailing input after the step: .*", r"terminal steps cannot declare transitions",
        r"a step needs a transition or 'terminal'", r"non-terminal steps need 'until <condition_id>'",
        r"duplicate step id .*", r"a workflow needs a header and at least one step",
        r"goto references unknown step .*",
    ],
    "scenario": LEXER_MESSAGES + [
        r"expected 'scenario <id>' header", r"expected a scenario id, got .*",
        r"trailing input after the scenario id: .*", r"expected 'at <ms> set <feature> = <value>'",
        r"invalid feature id: .*", r"expected a value, got .*", r"timestamp \d+ after \d+",
        r"\S+ set twice at t=\d+", r"\S+ holds \w+ \(line \d+\), cannot set \w+",
    ],
}


def _plain(value):
    """A value as the reference gives it: a vector as three floats, an enum
    as its name, a set as its sorted members."""
    if isinstance(value, Vec3):
        return (value.x, value.y, value.z)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, frozenset):
        return tuple(sorted(_plain(v) for v in value))
    return value


def _scene(text: str):
    return tuple(tuple(_plain(getattr(el, f)) for f in SCENE_FIELDS) for el in parse_scene(text).elements())


def _workflow(text: str):
    wf = parse_workflow(text)
    return wf.id, wf.line, tuple(tuple(getattr(step, f) for f in STEP_FIELDS) for step in wf.steps)


def _sets(sets) -> tuple:
    return tuple((feature, _plain(value)) for feature, value in sets)


def _scenario(text: str):
    sc = parse_scenario(text)
    return sc.id, _sets(sc.initial), tuple((event.t, _sets(event.sets)) for event in sc.events)


PARSERS = {
    "scene": (_scene, reference_formats.parse_scene),
    "workflow": (_workflow, reference_formats.parse_workflow),
    "scenario": (_scenario, reference_formats.parse_scenario),
}


def _agree(fmt: str, text: str):
    """Both sides' outcome on ``text``, which must be the same: compared by
    repr, so 0.0 and -0.0, or 1 and 1.0, differ."""
    parse, reference = PARSERS[fmt]
    outcome = _outcome(lambda: parse(text))
    assert repr(outcome) == repr(_outcome(lambda: reference(text)))
    if outcome[0] != "ok":
        assert any(re.fullmatch(m, outcome[1]) for m in MESSAGES[fmt]), outcome
    return outcome


# fragments that break a line: characters no token starts with, a broken
# string, a number out of range, and operators
STRAYS = ["|", "&", "-", "@", "٣", '"', '"a\\"', "1e999", "(", ",", "=", "#"]


@st.composite
def _mutated(draw, tokens: list) -> str:
    """The tokens joined by spaces, after up to two edits: a token dropped
    or doubled, or a stray put in."""
    tokens = list(tokens)
    for _ in range(draw(st.sampled_from([0] * 18 + [1, 2]))):
        j = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["drop", "double", "stray"]))
        if edit == "stray":
            tokens.insert(j, draw(st.sampled_from(STRAYS)))
        elif j < len(tokens):
            tokens[j:j + 1] = [] if edit == "drop" else [tokens[j]] * 2
    return draw(st.sampled_from([" ", "  ", "\t"])).join(tokens)


@st.composite
def _texts(draw, lines, header=None):
    """Lines drawn by ``lines``, and a line drawn by ``header``, if given,
    mostly put first, now and then last or left out; blank and comment
    lines and trailing comments among them."""
    lines = draw(lines)
    if header is not None and draw(_mostly([True], [False])):
        lines.insert(draw(_mostly([0], [len(lines)])), draw(header))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# note", "  ", "\t# x"])))
    if lines and draw(st.booleans()):
        lines[-1] += draw(st.sampled_from([" # done", "#", "  "]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _mostly(good: list, bad: list):
    """One of ``good`` nineteen times in twenty, else one of ``bad``."""
    return st.sampled_from(good * (19 * len(bad)) + bad * len(good))


# scene
ELEMENT_IDS = _mostly(["e", "f", "panel_1"], ["true", "at", "e.x", '"e"', "1"])
POSITIONS = _mostly(["(1,2,3)", "(0.5, -0.0, 2)", "( 1e2 , 0 , -3.5 )"], ["(1e999,0,0)", "1", '"p"', "(1,2)", "e"])
ATTRIBUTES = {
    "yaw": _mostly(["0", "1.5", "-3.25", "7", "-0.0", "6.283185307179586", "-1e-20"],
                   ["true", '"y"', "(1,2,3)", "1e999"]),
    "visible": _mostly(["true", "false"], ["1", '"true"', "yes"]),
    "billboard": _mostly(["true", "false"], ["0"]),
    "text": _mostly(['"hi"', '""', '"a\\"b"', '"# x"'], ["hi", "3"]),
    "text_size": _mostly(["14", "0.5", "18.0"], ["0", "-1", "-0.0", "true", "1e999"]),
    "detail": _mostly(["full", "reduced"], ["partial", "1", "(1,2,3)"]),
    "modality": _mostly(["visual", "audio, voice_input", "visual,audio", "voice_input,visual,audio", "visual,visual"],
                        ["smell", "visual, smell", "visual,", "visual,,audio"]),
}
ATTRIBUTE_NAMES = _mostly(list(ATTRIBUTES), ["glow", ","])


@st.composite
def _element_line(draw) -> str:
    tokens = [draw(_mostly(["element"], ["elem"])), draw(ELEMENT_IDS), draw(_mostly(["at"], ["on"])),
              draw(POSITIONS)]
    for attr in draw(st.lists(ATTRIBUTE_NAMES, max_size=4)):
        tokens += [attr, draw(ATTRIBUTES.get(attr, ATTRIBUTES["visible"]))]
    return draw(_mutated(tokens))


scenes = _texts(st.lists(_element_line(), max_size=4))


# workflow
CONDITIONS = _mostly(["c", "d"], ["true", '"c"', "c.x"])
INSTRUCTIONS = _mostly(['"Do it"', '""', '"a\\"b"'], ["go", "1", "1e999", "true"])


@st.composite
def _header(draw, word: str, ids) -> str:
    tokens = [word, draw(ids)]
    if draw(_mostly([False], [True])):
        tokens.append(draw(st.sampled_from(["x", "1", '"x"'])))
    return draw(_mutated(tokens))


@st.composite
def _step_lines(draw) -> list:
    """Steps s1, s2 ... in order, each going to one of them, the last one
    terminal: now and then with an id, a clause or a target off."""
    n = draw(st.integers(0, 4))
    ids = [f"s{k}" for k in range(1, n + 1)]
    lines = []
    for k, sid in enumerate(ids, start=1):
        targets = _mostly(ids, ["s9", "1", "s.x"])
        last = draw(_mostly([k == n], [k != n]))
        tokens = [draw(_mostly(["step"], ["stop"])), draw(_mostly([sid], ["s1", "1", "s.x"])), draw(INSTRUCTIONS)]
        if draw(st.booleans()):
            tokens += ["target", draw(ELEMENT_IDS)]
        if not last or draw(st.booleans()):
            tokens += ["until", draw(CONDITIONS)]
        if not last:
            for _ in range(draw(st.integers(0, 2))):
                tokens += ["on", draw(CONDITIONS), draw(_mostly(["goto"], ["to"])), draw(targets)]
            if draw(_mostly([True], [False])):
                tokens += ["goto", draw(targets)]
        if draw(st.sampled_from([last] * 4 + [not last])):
            tokens.append("terminal")
        lines.append(draw(_mutated(tokens)))
    return lines


workflows = _texts(_step_lines(), _header("workflow", _mostly(["w", "flow_1"], ["1", "w.x"])))


# scenario
TIMES = [0, 0, 5, 10, 10, 20]
FEATURES = _mostly(["env.a", "env.b", "user.position", "platform.p", "env.a1_"],
                   ["env.A", "envx.a", "env", "env.a.b", "env._a", "1", '"env.a"'])
VALUES = _mostly(["1", "2", "-1", "2.5", "-0.0", "true", "false", '"on"', '""', "(1,2,3)", "(0.5,-0.0,1e2)"],
                 ["1e999", "(1e999,0,0)", "x", "env.a", "("])


@st.composite
def _set_lines(draw) -> list:
    """Lines at times in order, now and then one out of order or no time."""
    times = sorted(draw(st.lists(st.sampled_from(TIMES), max_size=5)))
    if times and draw(_mostly([False], [True])):
        times[draw(st.integers(0, len(times) - 1))] = draw(st.sampled_from([3, "007", "-1", "1.5", "x"]))
    return [draw(_mutated(["at", str(t), "set", draw(FEATURES), "=", draw(VALUES)])) for t in times]


scenarios = _texts(_set_lines(), _header("scenario", _mostly(["s", "run_1"], ["1", "s.x"])))


@settings(max_examples=200, deadline=None)
@given(scenes)
def test_the_scene_readers_agree(text):
    _agree("scene", text)


@settings(max_examples=200, deadline=None)
@given(workflows)
def test_the_workflow_readers_agree(text):
    _agree("workflow", text)


@settings(max_examples=200, deadline=None)
@given(scenarios)
def test_the_scenario_readers_agree(text):
    _agree("scenario", text)


E = "element e at (0,0,0)"
TABLES = {
    "scene": [
        "",
        "# only a comment\n\n",
        E,
        'element hud at (1.0,2.0,-0.5) yaw 1.5 visible false text "hi # there" text_size 18 detail reduced'
        " modality audio,voice_input billboard true",
        f"{E} modality visual, audio\nelement d at (1,2,3) yaw -0.0 text_size 1  # d",
        f"{E} yaw -7 billboard true",
        "element e at (1e400,0,0)",
        f"{E} text \"a",
        f"{E} | true",
        "element",
        f"{E} modality visual,",
        "elem e at (0,0,0)",
        "element e.x at (0,0,0)",
        "element e (0,0,0)",
        "element e at",
        "element e at 1",
        f"{E} visible true visible false",
        f"{E} text",
        f"{E} detail partial",
        f"{E} modality visual,smell",
        f"{E} visible 1",
        f"{E} billboard \"true\"",
        f"{E} text hello",
        f"{E} yaw (1,2,3)",
        f"{E} text_size true",
        f"{E} text_size 0",
        f"{E} glow true",
        f"{E}\n\n{E}",
    ],
    "workflow": [
        'workflow w\nstep s "Go" until c goto t\nstep t "Done" terminal',
        'workflow w  # pick\nstep s "Go" target e until c on d goto t on c goto s goto t\n\nstep t "" until c terminal',
        "",
        "# c\n\nworkflow w\n",
        "workflow w\nstep s ٣",
        'workflow w\nstep s "Go',
        "workflow w\nstep s 1e999 terminal",
        "workflow",
        "workflow w\nworkflow v",
        "workflow 1",
        "workflow w x",
        "flow w",
        'step s "Go" terminal',
        'workflow w\nstep s.x "Go" terminal',
        "workflow w\nstep s go terminal",
        'workflow w\nstep s "Go" target "e" terminal',
        'workflow w\nstep s "Go" until 1 goto s',
        'workflow w\nstep s "Go" until c on d to s',
        'workflow w\nstep s "Go" until c goto s goto s',
        'workflow w\nstep s "Go" until c goto s terminal',
        'workflow w\nstep s "Go" until c',
        'workflow w\nstep s "Go" goto s',
        'workflow w\nstep s "Go" terminal\nstep s "Again" terminal',
        'workflow w\nstep s "Go" until c goto t\nstep u "Done" terminal',
    ],
    "scenario": [
        "scenario s\nat 0 set env.a = 1\nat 0 set user.position = (1,2,3)\nat 10 set env.a = 2\n"
        'at 10 set env.b = "x"',
        "# c\nscenario s  # run\n\nat 5 set env.a = -0.0\nat 007 set env.a = 2.5",
        "scenario s",
        "scenario s\nat 0 set env.a = @",
        'scenario s\nat 0 set env.a = "on',
        "scenario s\nat 0 set env.a = 1e999",
        "scenario",
        "",
        "at 0 set env.a = 1",
        "scenario 1",
        "scenario s t",
        "scenario s\nat 0 set env.a 1",
        "scenario s\nat -1 set env.a = 1",
        "scenario s\nat 0 set env.A = 1",
        "scenario s\nat 0 set env.a = x",
        "scenario s\nat 10 set env.a = 1\nat 5 set env.b = 1",
        "scenario s\nat 10 set env.a = 1\nat 10 set env.a = 2",
        "scenario s\nat 0 set env.a = 1\nat 10 set env.a = 1.0",
    ],
}
CASES = [(fmt, text) for fmt, texts in TABLES.items() for text in texts]


@pytest.mark.parametrize("fmt, text", CASES, ids=[f"{fmt}:{text[:40]!r}" for fmt, text in CASES])
def test_the_readers_agree_on_the_table(fmt, text):
    _agree(fmt, text)


@pytest.mark.parametrize("fmt", list(TABLES))
def test_every_message_is_met_by_the_table(fmt):
    """The table of each format holds texts both sides read and texts
    that raise each message its parser can raise."""
    outcomes = [_agree(fmt, text) for text in TABLES[fmt]]
    assert sum(o[0] == "ok" for o in outcomes) >= 2
    for message in MESSAGES[fmt]:
        assert any(o[0] != "ok" and re.fullmatch(message, o[1]) for o in outcomes), message
