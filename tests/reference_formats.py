"""Reference readers for the scene, workflow and scenario formats, written
from README "File formats" and the messages the package raises.

Each reader tokenizes a line with ``reference_parse.tokenize``, the
seven-group tokenizer, walks its tokens with its own cursor, and raises
the package's error classes with the same messages and line numbers. It
imports no reading code from ``adaptkit`` (no ``_lexer``, no ``FeatureId``,
no ``WRITABLE`` check) and returns plain data, so test_formats.py compares
the package's results with it field by field:

* a scene is a tuple of elements in id order, each the tuple of
  ``SCENE_FIELDS``: a position as three floats, an enum as its name, a
  modality set as its sorted names;
* a workflow is ``(id, header line, steps)``, each step the tuple of
  ``STEP_FIELDS``;
* a scenario is ``(id, initial sets, events)``, an event ``(t, sets)``, a
  set ``(feature id, value)`` with a vector as three floats.
"""

from __future__ import annotations

import math

from adaptkit.errors import (
    DecreasingTimestamp,
    DslSyntaxError,
    DuplicateFeatureInEvent,
    DuplicateId,
    DuplicateStep,
    FeatureTypeChange,
    UnknownStepRef,
)
from reference_parse import _literal, kind_of, text_of, tokenize

SCENE_FIELDS = ("id", "position", "yaw", "visible", "text", "text_size", "detail", "modalities", "highlight",
                "billboard")
STEP_FIELDS = ("id", "instruction", "target", "completion", "transitions", "terminal", "line")


def _lines(text: str):
    """``(lineno, tokens)`` for each line holding a token, its comment dropped."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = tokenize(line, lineno)
        if tokens and kind_of(tokens[-1]) == "comment":
            tokens.pop()
        if tokens:
            yield lineno, tokens


class _Cursor:
    """One line's seven-group tokens, read left to right."""

    def __init__(self, tokens: list, lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def fail(self, message: str):
        raise DslSyntaxError(self.lineno, message)

    def done(self) -> bool:
        return self.i == len(self.tokens)

    def take(self):
        """The next token, as a 7-tuple."""
        if self.done():
            self.fail("unexpected end of line")
        self.i += 1
        return self.tokens[self.i - 1]

    def text(self) -> str:
        return text_of(self.take())

    def accept(self, word: str) -> bool:
        """Take the next token if its text is ``word``."""
        if not self.done() and text_of(self.tokens[self.i]) == word:
            self.i += 1
            return True
        return False

    def name(self, what: str) -> str:
        """An identifier without dots."""
        tok = self.take()
        if kind_of(tok) != "ref" or "." in text_of(tok):
            self.fail(f"expected {what}, got {text_of(tok)!r}")
        return text_of(tok)

    def value(self):
        """The next token's literal value, taken, or None, taking nothing."""
        if self.done():
            return None
        value = _literal(self.tokens[self.i], self.lineno)
        if value is not None:
            self.i += 1
        return value

    def finish(self, where: str) -> None:
        if not self.done():
            self.fail(f"trailing input {where}: {text_of(self.tokens[self.i])!r}")


# ---------------------------------------------------------------------------
# scene

TAU = 2.0 * math.pi
_DEFAULTS = {"yaw": 0.0, "visible": True, "text": "", "text_size": 14.0, "detail": "full",
             "modalities": ("visual",), "highlight": None, "billboard": False}
_MODALITY_NAMES = ("audio", "visual", "voice_input")


def _number(value) -> float:
    if type(value) not in (int, float):
        raise ValueError("expected a number")
    return float(value)


def _yaw(value) -> float:
    """An angle wrapped into [0, 2*pi), -0.0 as 0.0, as a write to yaw takes it."""
    wrapped = _number(value) % TAU
    return 0.0 if wrapped >= TAU or wrapped == 0.0 else wrapped


def _text_size(value) -> float:
    size = _number(value)
    if not 0.0 < size < math.inf:
        raise ValueError("text_size must be a positive finite number")
    return size


def _bool(value) -> bool:
    if type(value) is not bool:
        raise ValueError("expected bool")
    return value


def _text(value) -> str:
    if type(value) is not str:
        raise ValueError("expected text")
    return value


# the attributes given as one literal, and what a write to each takes
_LITERAL_CHECKS = {"visible": _bool, "billboard": _bool, "text": _text, "yaw": _yaw, "text_size": _text_size}


def parse_scene(text: str) -> tuple:
    """``element <id> at (x,y,z) [<attribute> <value>]...`` per line, each
    attribute at most once and in any order."""
    elements = {}
    for lineno, tokens in _lines(text):
        cur = _Cursor(tokens, lineno)
        head = cur.text()
        if head != "element":
            cur.fail(f"expected 'element', got {head!r}")
        elem_id = cur.name("an element id")
        if not cur.accept("at"):
            cur.fail("expected: element <id> at (x,y,z) ...")
        position = cur.value()
        if type(position) is not tuple:
            cur.fail("expected position (x,y,z)")
        element = dict(_DEFAULTS, id=elem_id, position=tuple(float(c) for c in position))
        given = []
        while not cur.done():
            attr = cur.text()
            if attr in given:
                cur.fail(f"duplicate attribute {attr!r}")
            given.append(attr)
            if cur.done():
                cur.fail(f"attribute {attr!r} needs a value")
            if attr == "detail":
                level = cur.text()
                if level not in ("full", "reduced"):
                    cur.fail(f"unknown detail level {level!r}")
                element["detail"] = level
            elif attr == "modality":
                names = [cur.text()]
                while cur.accept(","):
                    names.append(cur.text())
                if not set(names) <= set(_MODALITY_NAMES):
                    cur.fail(f"unknown modality in {','.join(names)!r}")
                element["modalities"] = tuple(sorted(set(names)))
            elif attr in _LITERAL_CHECKS:
                try:
                    element[attr] = _LITERAL_CHECKS[attr](cur.value())
                except ValueError as e:
                    cur.fail(f"attribute {attr!r}: {e}")
            else:
                cur.fail(f"unknown attribute {attr!r}")
        if elem_id in elements:
            raise DuplicateId(lineno, f"duplicate element id {elem_id!r}")
        elements[elem_id] = tuple(element[f] for f in SCENE_FIELDS)
    return tuple(elements[k] for k in sorted(elements))


# ---------------------------------------------------------------------------
# workflow

def parse_workflow(text: str) -> tuple:
    """``workflow <id>`` first, then ``step <id> "<instruction>" [target
    <element>] [until <condition>] [on <condition> goto <step>]... [goto
    <step>] [terminal]`` lines; a terminal step has no transition, and any
    other step has one and an ``until``."""
    header = None  # (id, line)
    steps = {}
    for lineno, tokens in _lines(text):
        cur = _Cursor(tokens, lineno)
        head = cur.text()
        if head == "workflow":
            if header is not None:
                cur.fail("duplicate 'workflow' header")
            header = (cur.name("a workflow id"), lineno)
            cur.finish("after workflow id")
            continue
        if head != "step":
            cur.fail(f"expected 'workflow' or 'step', got {head!r}")
        if header is None:
            cur.fail("'workflow <id>' header must come first")
        sid = cur.name("a step id")
        instruction = cur.value()
        if type(instruction) is not str:
            cur.fail("step needs a quoted instruction")
        target = cur.name("an element id") if cur.accept("target") else None
        completion = cur.name("a condition id") if cur.accept("until") else None
        transitions = []
        while cur.accept("on"):
            guard = cur.name("a condition id")
            if not cur.accept("goto"):
                cur.fail("expected 'goto' after the guard")
            transitions.append((guard, cur.name("a step id")))
        if cur.accept("goto"):
            transitions.append((None, cur.name("a step id")))
        terminal = cur.accept("terminal")
        cur.finish("after the step")
        if terminal and transitions:
            cur.fail("terminal steps cannot declare transitions")
        if not terminal and not transitions:
            cur.fail("a step needs a transition or 'terminal'")
        if not terminal and completion is None:
            cur.fail("non-terminal steps need 'until <condition_id>'")
        if sid in steps:
            raise DuplicateStep(lineno, f"duplicate step id {sid!r}")
        steps[sid] = (sid, instruction, target, completion, tuple(transitions), terminal, lineno)
    if header is None or not steps:
        raise DslSyntaxError(header[1] if header else 1, "a workflow needs a header and at least one step")
    for _, _, _, _, transitions, _, lineno in steps.values():
        for _, nxt in transitions:
            if nxt not in steps:
                raise UnknownStepRef(lineno, f"goto references unknown step {nxt!r}")
    return header[0], header[1], tuple(steps.values())


# ---------------------------------------------------------------------------
# scenario

_CATEGORIES = ("env", "user", "platform")
_NAME_START = "abcdefghijklmnopqrstuvwxyz"
_NAME_REST = _NAME_START + "0123456789_"


def _feature(text: str, lineno: int) -> str:
    """``<category>.<name>``, a name ``[a-z][a-z0-9_]*``."""
    category, _, name = text.partition(".")
    if (category not in _CATEGORIES or not name or name[0] not in _NAME_START
            or any(c not in _NAME_REST for c in name)):
        raise DslSyntaxError(lineno, f"invalid feature id: {text!r}")
    return text


def _type_name(value) -> str:
    return {bool: "bool", int: "int", float: "float", str: "text", tuple: "vec3"}[type(value)]


_SET_SYNTAX = "expected 'at <ms> set <feature> = <value>'"


def parse_scenario(text: str) -> tuple:
    """``scenario <id>`` first, then ``at <ms> set <feature> = <value>``
    lines in time order; lines of one time are one event, each feature set
    once in it, and a feature keeps the type of its first value."""
    scenario_id = None
    events = []  # [t, sets, features set]
    first_types = {}  # feature -> (type, line)
    for lineno, tokens in _lines(text):
        cur = _Cursor(tokens, lineno)
        if scenario_id is None:
            if not cur.accept("scenario"):
                cur.fail("expected 'scenario <id>' header")
            scenario_id = cur.name("a scenario id")
            cur.finish("after the scenario id")
            continue
        words = [text_of(tok) for tok in tokens]
        if (len(words) != 6 or words[0] != "at" or not words[1].isdigit() or words[2] != "set"
                or kind_of(tokens[3]) != "ref" or words[4] != "="):
            cur.fail(_SET_SYNTAX)
        t, feature = int(words[1]), _feature(words[3], lineno)
        value = _literal(tokens[5], lineno)
        if value is None:
            cur.fail(f"expected a value, got {words[5]!r}")
        if type(value) is tuple:
            value = tuple(float(c) for c in value)
        if events and t < events[-1][0]:
            raise DecreasingTimestamp(lineno, f"timestamp {t} after {events[-1][0]}")
        if not events or t != events[-1][0]:
            events.append((t, [], set()))
        _, sets, features = events[-1]
        if feature in features:
            raise DuplicateFeatureInEvent(lineno, f"{feature} set twice at t={t}")
        features.add(feature)
        first_type, first_line = first_types.setdefault(feature, (_type_name(value), lineno))
        if _type_name(value) != first_type:
            raise FeatureTypeChange(
                lineno, f"{feature} holds {first_type} (line {first_line}), cannot set {_type_name(value)}")
        sets.append((feature, value))
    if scenario_id is None:
        raise DslSyntaxError(1, "expected 'scenario <id>' header")
    initial = tuple(events[0][1]) if events and events[0][0] == 0 else ()
    later = tuple((t, tuple(sets)) for t, sets, _ in events if t != 0)
    return scenario_id, initial, later
