"""Deterministic replay: scripted context events in, byte-exact trace out.

A scenario file scripts the sensor feed::

    scenario <id>
    at <ms> set <feature> = <value>     # '#' comments allowed

Consecutive lines with the same timestamp form one event and are applied
atomically before any condition evaluation. The t=0 block seeds the store
before the engine initializes. Timestamps order events but never appear
in traces, so runs are wall-clock independent. A feature keeps the type
of its first value (int and float differ), as the context store requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from ._lexer import expect_end, ident, kind, lines, literal
from .context import ContextStore, FeatureId
from .dsl import RuleSet
from .engine import DEFAULT_MAX_CASCADE_DEPTH, Trace, init_engine
from .errors import (
    DecreasingTimestamp,
    DslSyntaxError,
    DuplicateFeatureInEvent,
    FeatureTypeChange,
)
from .scene import SceneModel
from .values import Value, Vec3, type_name
from .workflow import Workflow


@dataclass(frozen=True)
class ScenarioEvent:
    t: int  # milliseconds
    sets: tuple[tuple[FeatureId, Value], ...]


@dataclass(frozen=True)
class Scenario:
    id: str
    initial: tuple[tuple[FeatureId, Value], ...]
    events: tuple[ScenarioEvent, ...]


_SET_SYNTAX = "expected 'at <ms> set <feature> = <value>'"


def parse_scenario(text: str) -> Scenario:
    scenario_id: str | None = None
    blocks: list[tuple[int, list]] = []  # (t, [(feature, value), ...])
    last_t = -1
    seen: set[str] = set()  # the feature ids of the last block, as written
    features: dict[str, FeatureId] = {}  # each distinct feature id is parsed once
    types: dict[str, tuple[str, int]] = {}  # feature id -> type of its first value, that line

    for lineno, tokens in lines(text):
        if scenario_id is None:
            if tokens[0] != "scenario":
                raise DslSyntaxError(lineno, "expected 'scenario <id>' header")
            scenario_id = ident(tokens, 1, lineno, "a scenario id")
            expect_end(tokens, 2, lineno, "after the scenario id")
            continue
        if len(tokens) != 6:
            raise DslSyntaxError(lineno, _SET_SYNTAX)
        at, ms, set_, name, eq, val = tokens
        if not (at == "at" and ms.isdecimal() and set_ == "set" and kind(name) == "ref" and eq == "="):
            raise DslSyntaxError(lineno, _SET_SYNTAX)
        t = int(ms)
        feature = features.get(name)
        if feature is None:
            try:
                feature = features[name] = FeatureId.parse(name)
            except ValueError as e:
                raise DslSyntaxError(lineno, str(e)) from None
        value = literal(val, lineno)
        if value is None:
            raise DslSyntaxError(lineno, f"expected a value, got {val!r}")
        if isinstance(value, tuple):
            value = Vec3(*value)
        if t != last_t:
            if t < last_t:
                raise DecreasingTimestamp(lineno, f"timestamp {t} after {last_t}")
            sets, seen = [], set()
            blocks.append((t, sets))
            last_t = t
        if name in seen:
            raise DuplicateFeatureInEvent(lineno, f"{feature} set twice at t={t}")
        seen.add(name)
        value_type = type_name(value)
        first = types.setdefault(name, (value_type, lineno))
        if first[0] != value_type:
            raise FeatureTypeChange(lineno, f"{feature} holds {first[0]} (line {first[1]}), cannot set {value_type}")
        sets.append((feature, value))

    if scenario_id is None:
        raise DslSyntaxError(1, "expected 'scenario <id>' header")
    initial: tuple = ()
    events = []
    for t, sets in blocks:
        if t == 0:
            initial = tuple(sets)
        else:
            events.append(ScenarioEvent(t, tuple(sets)))
    return Scenario(scenario_id, initial, tuple(events))


def run_scenario(
    rules: RuleSet,
    scene: SceneModel,
    scenario: Scenario,
    workflow: Workflow | None = None,
    store: ContextStore | None = None,
    max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
) -> Trace:
    """Replay a scenario against fresh engine state and return the trace.

    The t=0 block is written to the store before engine initialization, so
    it never produces EVENT lines. Engine errors propagate with the
    partial trace attached to the exception.
    """
    if store is None:
        store = ContextStore()
    for feature, value in scenario.initial:
        store.set_feature(feature, value)
    engine = init_engine(rules, scene, store, workflow, max_cascade_depth)
    for event in scenario.events:
        engine.process_event(list(event.sets))
    return engine.trace


@dataclass(frozen=True)
class Verdict:
    match: bool
    line: int | None = None  # 1-based first differing line
    expected: str | None = None
    actual: str | None = None


def _normalize(text: str) -> str:
    """Line endings as "\n", trailing newlines dropped."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.rstrip("\n")


def compare_traces(actual: str, golden: str) -> Verdict:
    """Byte comparison after normalizing line endings and trailing newlines.
    Equal texts are not copied; texts that differ are normalized, and split
    into lines only when they still differ, to find the line."""
    if actual == golden:
        return Verdict(True)
    actual = _normalize(actual)
    golden = _normalize(golden)
    if actual == golden:
        return Verdict(True)
    actual_lines = actual.split("\n") if actual else []
    golden_lines = golden.split("\n") if golden else []
    for i, (got, want) in enumerate(zip_longest(actual_lines, golden_lines), start=1):
        if got != want:
            return Verdict(False, line=i, expected=want, actual=got)
    return Verdict(True)  # not reached: texts that differ differ in some line
