"""CLI fuzz: mutated fixture texts never make ``main()`` raise.

The printer, warehouse and cascade chain fixtures are mutated a few edits
at a time: characters dropped, tokens and lines inserted or repeated,
numbers swapped for huge, tiny or signed-zero ones, and ``user.position``
set to points far enough out for squared distances to overflow. ``check``
and ``run`` must then return 0, 2 or 3, as the README documents for them,
and let no exception escape; mutated ``set_feature`` chains go through
both.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptkit.cli import main

from conftest import FIXTURES

BUNDLES = (
    {"rules": "printer/printer.rules", "scene": "printer/printer.scene",
     "scenario": "printer/walk_away.scenario"},
    {"rules": "printer/printer.rules", "scene": "printer/printer.scene",
     "scenario": "printer/face_user.scenario"},
    {"rules": "warehouse/warehouse.rules", "scene": "warehouse/warehouse.scene",
     "scenario": "warehouse/multi_order_exception.scenario", "workflow": "warehouse/multi_order.workflow"},
    {"rules": "cascade/chain.rules", "scene": "cascade/chain.scene", "scenario": "cascade/chain.scenario"},
)
TEXTS = {rel: (FIXTURES / rel).read_text(encoding="utf-8") for b in BUNDLES for rel in b.values()}

COORDS = ("0.0", "-0.0", "1e154", "-1e154", "1e300", "-1e300", "1.7e308", "5e-324", "1.2")
NUMBERS = COORDS + ("0", "-1", "2.5", "99999999999999999999", "1e400", "3.2")
TOKENS = ("(", ")", ",", "&&", "||", "!", "<", ">=", "==", "dist(", "true", "false", '"', "#", "\n",
          "scene.", "user.position", "at", "set", "=", ";", "do", "when", "priority", "step", "goto")
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def _position_line(draw, text: str) -> str:
    times = [int(t) for t in re.findall(r"^at (\d+) ", text, re.M)] or [0]
    t = draw(st.sampled_from((0, max(times), max(times) + 1000)))
    x, y, z = (draw(st.sampled_from(COORDS)) for _ in range(3))
    return f"at {t} set user.position = ({x},{y},{z})\n"


@st.composite
def mutated(draw, text: str, scenario: bool) -> str:
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 5 if scenario else 4))
        lines = text.splitlines(keepends=True) or [""]
        if kind == 0 and text:  # drop a span
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        elif kind == 1:  # insert a token
            i = draw(st.integers(0, len(text)))
            text = text[:i] + draw(st.sampled_from(TOKENS)) + text[i:]
        elif kind == 2:  # repeat or drop a line
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [lines[i]] * draw(st.integers(0, 2))
            text = "".join(lines)
        elif kind == 3:  # swap two lines
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
        elif kind == 4:  # replace a number
            found = list(NUMBER.finditer(text))
            if found:
                m = draw(st.sampled_from(found))
                text = text[:m.start()] + draw(st.sampled_from(NUMBERS)) + text[m.end():]
        else:  # a user.position far out or on signed zeros
            text += _position_line(draw, text)
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_fixtures_exit_with_a_documented_code(workdir, data):
    bundle = data.draw(st.sampled_from(BUNDLES))
    target = data.draw(st.sampled_from(sorted(bundle) + ["scenario"]))  # the scenario twice as often
    paths = {}
    for kind, rel in bundle.items():
        text = TEXTS[rel]
        if kind == target:
            text = data.draw(mutated(text, kind == "scenario"))
        paths[kind] = workdir / f"input.{kind}"
        paths[kind].write_text(text, encoding="utf-8")
    files = [f"--{kind}={paths[kind]}" for kind in ("rules", "scene", "workflow") if kind in paths]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check", *files]) in (0, 2)
        assert main(["run", *files, f"--scenario={paths['scenario']}"]) in (0, 2, 3)
