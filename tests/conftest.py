"""Shared test helpers: fixture paths and tiny engine builders."""

from __future__ import annotations

import functools
import importlib.util
import sys
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import settings

from adaptkit import (
    ContextStore,
    FeatureId,
    init_engine,
    parse_rules,
    parse_scenario,
    parse_scene,
    parse_workflow,
    run_scenario,
)
from adaptkit.values import values_equal

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Hypothesis's defaults, but a failing example also prints the
# @reproduce_failure blob that replays it; an st.randoms() case cannot be
# pasted back as an @example, so the blob is how it is replayed.
settings.register_profile("adaptkit", print_blob=True)
settings.load_profile("adaptkit")


def fixture_text(rel: str) -> str:
    return (FIXTURES / rel).read_text(encoding="utf-8")


def load_fixture_bundle(rules: str, scene: str, scenario: str, workflow: str | None = None):
    wf = parse_workflow(fixture_text(workflow)) if workflow else None
    return (
        parse_rules(fixture_text(rules)),
        parse_scene(fixture_text(scene)),
        parse_scenario(fixture_text(scenario)),
        wf,
    )


def run_fixture(rules: str, scene: str, scenario: str, workflow: str | None = None, **kw):
    r, sc, sn, wf = load_fixture_bundle(rules, scene, scenario, workflow)
    return run_scenario(r, sc, sn, workflow=wf, **kw)


@functools.cache
def bench_gen():
    """bench/gen.py, the benchmark's workload generator, as a module."""
    spec = importlib.util.spec_from_file_location("bench_gen", FIXTURES.parent / "bench" / "gen.py")
    module = sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def store_from(pairs: dict[str, object]) -> ContextStore:
    store = ContextStore()
    for key, value in pairs.items():
        store.set_feature(FeatureId.parse(key), value)
    return store


def engine_from_texts(rules_text: str, scene_text: str, initial: dict[str, object],
                      workflow_text: str | None = None, **kw):
    wf = parse_workflow(workflow_text) if workflow_text else None
    return init_engine(
        parse_rules(rules_text), parse_scene(scene_text), store_from(initial), wf, **kw
    )


def assert_same_lines(actual: str, expected: str, what: str = "") -> None:
    """Two trace texts are equal. On a difference, fail with the number of
    the first differing line and both lines, without handing the texts to
    pytest's assertion diff, which takes minutes over a long trace."""
    if actual == expected:
        return
    for n, (got, want) in enumerate(zip_longest(actual.split("\n"), expected.split("\n")), start=1):
        if got != want:
            pytest.fail(f"{what}{': ' if what else ''}line {n} differs:\n  got  {got!r}\n  want {want!r}",
                        pytrace=False)


def scene_state(scene):
    """Bitwise-comparable snapshot of every element property."""
    out = []
    for el in scene.elements():
        out.append(
            (
                el.id,
                (el.position.x, el.position.y, el.position.z),
                el.yaw,
                el.visible,
                el.text,
                el.text_size,
                el.detail,
                frozenset(el.modalities),
                el.highlight,
                el.billboard,
            )
        )
    return out


def scene_states_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                if not values_equal(va, vb):
                    return False
            elif isinstance(va, tuple) and va and isinstance(va[0], float):
                if not all(values_equal(x, y) for x, y in zip(va, vb)):
                    return False
            elif va != vb:
                return False
    return True


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
