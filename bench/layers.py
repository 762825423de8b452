"""Outside-in layer tracing for the traced run.

The tracer wraps public functions and methods of the program's modules
from here, without editing them: a module-level function is replaced under
every name any ``adaptkit`` module binds it to (``engine`` imports
``validate`` and ``workflow.advance`` by name, for instance), and a method
is replaced on its class. Each call records a span
``[name, start, end, parent, event, args, result]`` in memory. Self times,
counts and ratios are derived after the run from the spans alone.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every function and method the traced run wraps
WRAPPED = [
    ("dsl", "parse_rules"),
    ("dsl", "validate"),
    ("scene", "parse_scene"),
    ("scene", "SceneModel.elements"),
    ("scene", "SceneModel.write_property"),
    ("scene", "SceneModel.refresh_billboards"),
    ("workflow", "parse_workflow"),
    ("workflow", "advance"),
    ("workflow", "apply_step"),
    ("scenario", "parse_scenario"),
    ("scenario", "compare_traces"),
    ("context", "ContextStore.set_feature"),
    ("context", "ContextStore.drain_dirty"),
    ("engine", "init_engine"),
    ("engine", "Engine.process_event"),
    ("engine", "Engine.evaluate_condition"),
    ("engine", "Engine.execute_rule"),
    ("engine", "Engine.unexecute_rule"),
    ("engine", "Trace.render"),
    ("cli", "main"),
]

NAME, START, END, PARENT, EVENT, ARGS, RESULT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.event: int | None = None  # scenario event being replayed, if any
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.event, args, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                rec[RESULT] = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            return rec[RESULT]

        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "adaptkit" or n.startswith("adaptkit.")}
        for mod_name, attr in WRAPPED:
            mod = modules[f"adaptkit.{mod_name}"]
            name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__.get(meth)
                if orig is None:
                    continue  # a later version may drop the method; its metrics go absent
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            traced = self._wrap(name, orig)
            for m in modules.values():
                for bound, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, bound, orig))
                        setattr(m, bound, traced)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()



def write_spans(spans: list, path) -> None:
    """One JSON array per span: name, start and end in microseconds, index
    of the parent span (-1 for none), scenario event index (null outside
    the replay)."""
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps([s[NAME], round(s[START] * 1e6, 3), round(s[END] * 1e6, 3), s[PARENT], s[EVENT]]))
            f.write("\n")


def _dur(s) -> float:
    return s[END] - s[START]


def _reads(expr, out: set) -> set:
    """Inputs an expression reads: feature ids and (element, property) pairs."""
    from adaptkit.dsl import FeatureRef, SceneRef  # src/ is on the path only once run.py set it up

    if isinstance(expr, FeatureRef):
        out.add(expr.feature)
    elif isinstance(expr, SceneRef):
        out.add((expr.element, expr.prop))
    else:
        for child in ("left", "right", "operand", "a", "b"):
            if hasattr(expr, child):
                _reads(getattr(expr, child), out)
    return out


def layer_metrics(spans: list, rules, n_events: int, lines: dict, trace_lines: int,
                  event_lines: int, scale: float) -> dict:
    """Per-layer figures from one traced pass.

    ``scale`` converts seconds to nominal-speed seconds. ``lines`` holds the
    line count of each input text; ``trace_lines`` is the length of the
    rendered trace and ``event_lines`` the part of it the scenario events
    (not E0) produced.
    """
    out: dict[str, float] = {}

    def put(name: str, value) -> None:
        if value is not None:
            out[name] = value

    child_time = defaultdict(float)
    in_cli = [False] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += _dur(s)
            in_cli[i] = in_cli[s[PARENT]] or spans[s[PARENT]][NAME] == "cli.main"

    def first(name: str):
        for i, s in enumerate(spans):
            if s[NAME] == name and not in_cli[i]:
                return s
        return None

    us = 1e6 * scale
    for name, key, text in (
        ("dsl.parse_rules", "dsl.parse_rules_us_per_line", "rules"),
        ("scene.parse_scene", "scene.parse_scene_us_per_line", "scene"),
        ("workflow.parse_workflow", "workflow.parse_workflow_us_per_line", "workflow"),
        ("scenario.parse_scenario", "scenario.parse_scenario_us_per_line", "scenario"),
    ):
        s = first(name)
        if s is not None:
            put(key, _dur(s) * us / lines[text])

    v = first("dsl.validate")
    if v is not None:
        put("dsl.validate_ms", _dur(v) * us / 1e3)
        put("dsl.validate_diagnostics", len(v[RESULT]))
    put("cli.validate_calls", sum(1 for i, s in enumerate(spans) if s[NAME] == "dsl.validate" and in_cli[i]))

    for i, s in enumerate(spans):
        if s[NAME] == "engine.init_engine" and not in_cli[i]:
            validate_time = sum(_dur(c) for c in spans if c[PARENT] == i and c[NAME] == "dsl.validate")
            put("engine.init_ms", (_dur(s) - validate_time) * us / 1e3)
            break

    # per-event figures: spans the replay loop tagged with an event index
    ev = [(i, s) for i, s in enumerate(spans) if s[EVENT] is not None]
    by_name = defaultdict(list)
    for i, s in ev:
        by_name[s[NAME]].append((i, s))

    def total(*names) -> float | None:
        found = [s for n in names for _, s in by_name.get(n, [])]
        return sum(_dur(s) for s in found) if found else None

    def count(*names) -> int:
        return sum(len(by_name.get(n, [])) for n in names)

    evals = by_name.get("engine.evaluate_condition", [])
    if evals:
        put("engine.cond_evals_per_event", len(evals) / n_events)
        put("engine.cond_us_per_event", total("engine.evaluate_condition") * us / n_events)
        put("engine.cond_changed_ratio", sum(1 for _, s in evals if s[RESULT][1]) / len(evals))
        put("engine.cond_input_changed_ratio", _input_changed_ratio(spans, rules))
    events = by_name.get("engine.process_event", [])
    event_time = sum(_dur(s) for _, s in events)
    if events:
        put("engine.loop_self_us_per_event",
            sum(_dur(s) - child_time[i] for i, s in events) * us / n_events)
        cycles = sum(s[RESULT].cycles for _, s in events)
        put("engine.cycles_per_event", cycles / n_events)
        if "scene.elements" in by_name:
            put("scene.element_sorts_per_cycle", count("scene.elements") / cycles)
    rule_time = total("engine.execute_rule", "engine.unexecute_rule")
    put("engine.rule_transitions_per_event", count("engine.execute_rule", "engine.unexecute_rule") / n_events)
    if rule_time is not None:
        put("engine.rule_us_per_event", rule_time * us / n_events)
    if events and evals:
        put("engine.cond_share_of_event", total("engine.evaluate_condition") / event_time)
        put("engine.rule_share_of_event", (rule_time or 0.0) / event_time)
    if "context.set_feature" in by_name:
        put("context.set_feature_per_event", count("context.set_feature") / n_events)
    if "context.drain_dirty" in by_name:
        put("context.drain_dirty_us_per_event", total("context.drain_dirty") * us / n_events)
    writes = by_name.get("scene.write_property", [])
    if writes:
        put("scene.writes_per_event", len(writes) / n_events)
        put("scene.noop_write_ratio", sum(1 for _, s in writes if s[RESULT] is None) / len(writes))
    if "scene.refresh_billboards" in by_name:
        put("scene.billboard_us_per_event", total("scene.refresh_billboards") * us / n_events)
    wf = total("workflow.advance", "workflow.apply_step")
    if wf is not None:
        put("workflow.advance_us_per_event", wf * us / n_events)
    put("engine.trace_lines_per_event", event_lines / n_events)

    render = first("engine.render")
    if render is not None:
        put("engine.render_us_per_kline", _dur(render) * us / (trace_lines / 1e3))
    for i, s in enumerate(spans):
        if s[NAME] == "scenario.compare_traces" and in_cli[i]:
            put("scenario.compare_traces_us_per_kline", _dur(s) * us / (trace_lines / 1e3))
            break
    return out


def _input_changed_ratio(spans: list, rules) -> float:
    """Share of condition evaluations that saw an input changed since the
    condition's previous evaluation (the first evaluation counts as changed).

    Inputs are read from the parsed expressions; a feature changes when
    ``set_feature`` reports CHANGED and a scene property when
    ``write_property`` applies a write. Only scenario events are counted.
    """
    reads = {c.id: _reads(c.expr, set()) for c in rules.conditions}
    version: dict = {}
    seen_at: dict = {}
    stamp = 0
    evaluated = changed = 0
    for s in spans:
        name = s[NAME]
        if name == "context.set_feature":
            if s[RESULT] is not None and s[RESULT].value == "changed":
                stamp += 1
                version[s[ARGS][1]] = stamp
        elif name == "scene.write_property":
            if s[RESULT] is not None:
                stamp += 1
                version[(s[ARGS][1], s[ARGS][2])] = stamp
        elif name == "engine.evaluate_condition":
            cid = s[ARGS][1]
            last = seen_at.get(cid)
            hit = last is None or any(version.get(k, 0) > last for k in reads[cid])
            stamp += 1
            seen_at[cid] = stamp
            if s[EVENT] is not None:
                evaluated += 1
                changed += hit
    return changed / evaluated if evaluated else 0.0
