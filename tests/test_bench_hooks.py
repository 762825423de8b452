"""The benchmark's layer hooks still find what they wrap, and a traced pass
still yields every per-layer metric.

``bench/layers.py`` wraps program functions by name from outside ``src/``,
and ``Tracer.install`` silently skips a name it cannot find, so a rename
or move would drop per-layer metrics without failing anything else. A
metric also goes missing when the program stops calling a wrapped function
inside the replay (a write that bypasses ``SceneModel.write_property``, a
billboard pass that skips ``SceneModel.elements``), and a non-finite one
would break the benchmark's JSON result line.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import adaptkit
import adaptkit.cli

from conftest import FIXTURES

BENCH = FIXTURES.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_as_install_looks_it_up(layers):
    for mod_name, attr in layers.WRAPPED:
        mod = importlib.import_module(f"adaptkit.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"


def test_every_wrapped_name_is_called_by_the_fixtures(layers, capsys):
    tracer = layers.Tracer()
    tracer.install()
    try:
        for rules, scene, scenario, workflow, golden in (
            ("printer/printer.rules", "printer/printer.scene", "printer/walk_away.scenario", None,
             "printer/golden/walk_away.trace"),
            ("warehouse/warehouse.rules", "warehouse/warehouse.scene", "warehouse/multi_order_exception.scenario",
             "warehouse/multi_order.workflow", "warehouse/golden/multi_order_exception.trace"),
        ):
            argv = ["verify", "--rules", FIXTURES / rules, "--scene", FIXTURES / scene,
                    "--scenario", FIXTURES / scenario, "--golden", FIXTURES / golden]
            if workflow:
                argv += ["--workflow", FIXTURES / workflow]
            assert adaptkit.cli.main([str(a) for a in argv]) == 0  # looked up after install
    finally:
        tracer.uninstall()
    capsys.readouterr()
    called = {span[layers.NAME] for span in tracer.spans}
    wrapped = {f"{m}.{a.rsplit('.', 1)[-1]}" for m, a in layers.WRAPPED}
    assert wrapped - called == set()


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module; it puts bench/ on sys.path to import its
    siblings, which is undone once they are loaded."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for name in ("checks", "gen", "layers", "speed"):
            if Path(getattr(sys.modules.get(name), "__file__", "") or "").parent == BENCH:
                del sys.modules[name]
    return module


def _first_events(scenario: str, last_ms: int) -> str:
    """The scenario up to and including the events at ``last_ms``."""
    kept = [line for line in scenario.splitlines() if not line.startswith("at ") or int(line.split()[1]) <= last_ms]
    return "\n".join(kept) + "\n"


# seed 1's events to replay: tracking_stream's walk first comes near enough
# to an element for a rule to execute at event 52
@pytest.mark.parametrize("workload, events", [("wide_rules", 10), ("tracking_stream", 60), ("cascade_churn", 10)])
def test_traced_pass_reports_every_per_layer_metric(bench_run, workload, events, tmp_path):
    """One traced pass as ``bench/run.py --trace 1`` makes it, on the first
    events of the workload, yields every per-layer metric BENCHMARK.json
    names (tracing overhead aside: it compares two passes), each finite."""
    w = bench_run.gen.GENERATORS[workload](1)
    w = dataclasses.replace(w, scenario=_first_events(w.scenario, 10 * events), events=w.events[:events])
    files = {kind: tmp_path / kind for kind in ("rules", "scene", "workflow", "scenario", "golden")}
    for kind in ("rules", "scene", "workflow", "scenario"):
        files[kind].write_text(getattr(w, kind), encoding="utf-8")
    bench = bench_run.Bench(adaptkit, adaptkit.cli, w, files, checker=None)
    tracer = bench_run.layers.Tracer()
    tracer.install()
    try:
        engine, scenario = bench.setup()
        e0_lines = len(engine.trace)
        bench.replay(engine, scenario, tracer=tracer)
        files["golden"].write_text(engine.trace.render(), encoding="utf-8")
        assert bench.verify() == 0
    finally:
        tracer.uninstall()
        gc.unfreeze()
    assert len(scenario.events) == events
    lines = {k: bench_run._count_lines(getattr(w, k)) for k in ("rules", "scene", "workflow", "scenario")}
    metrics = bench_run.layers.layer_metrics(
        tracer.spans, engine.rules, len(scenario.events), lines, len(engine.trace),
        len(engine.trace) - e0_lines, 1.0,
    )
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["per_layer"]} - {"bench.tracing_overhead"}
    assert wanted - set(metrics) == set()
    assert [name for name in wanted if not math.isfinite(metrics[name])] == []
