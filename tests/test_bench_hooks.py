"""The benchmark's layer hooks still find what they wrap.

``bench/layers.py`` wraps program functions by name from outside ``src/``,
and ``Tracer.install`` silently skips a name it cannot find, so a rename
or move would drop per-layer metrics without failing anything else.
"""

from __future__ import annotations

import importlib
import importlib.util

import pytest

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
