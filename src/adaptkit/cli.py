"""Command-line front end: check rule sets, run scenarios, verify traces.

Exit codes: 0 success/match, 1 verification mismatch, 2 input error
(parse or validation), 3 runtime error (non-quiescent cascade, evaluation
failure). ``run`` keeps standard output clean: without --trace it carries
nothing but trace lines; all diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from .context import ContextStore, FeatureId, load_state, save_state
from .dsl import RuleSet, parse_rules, validate
from .engine import DEFAULT_MAX_CASCADE_DEPTH
from .errors import AdaptError, MalformedStateFile, ParseError
from .scenario import Scenario, compare_traces, parse_scenario, run_scenario
from .scene import SceneModel, parse_scene
from .values import type_name
from .workflow import Workflow, parse_workflow

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3

USE_COUNT = FeatureId.parse("user.app_use_count")


class _InputError(Exception):
    pass


def _fail(path: str, reason) -> _InputError:
    """Print an input error as ``<path>: error: <reason>``; the caller raises
    what this returns."""
    print(f"{path}: error: {reason}", file=sys.stderr)
    return _InputError()


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _fail(path, e.strerror or e) from e
    except UnicodeDecodeError as e:
        raise _fail(path, e) from e


def _parse(path: str, parser):
    try:
        return parser(_read(path))
    except ParseError as e:
        raise _fail(f"{path}:{e.line}", e.message) from e


def _load_inputs(args) -> tuple[RuleSet, SceneModel | None, Workflow | None]:
    rules = _parse(args.rules, parse_rules)
    scene = _parse(args.scene, parse_scene) if getattr(args, "scene", None) else None
    workflow = _parse(args.workflow, parse_workflow) if getattr(args, "workflow", None) else None
    return rules, scene, workflow


def _report_diagnostics(args, diags) -> bool:
    """Print diagnostics to stderr; returns True if any is an error."""
    has_error = False
    for d in diags:
        path = args.workflow if d.source == "workflow" else args.rules
        print(f"{path}:{d.line}: {d.severity}: {d.message}", file=sys.stderr)
        has_error = has_error or d.severity == "error"
    return has_error


def cmd_check(args) -> int:
    try:
        rules, scene, workflow = _load_inputs(args)
    except _InputError:
        return EXIT_INPUT_ERROR
    if _report_diagnostics(args, validate(rules, scene, workflow)):
        return EXIT_INPUT_ERROR
    return EXIT_OK


def _prepare_state(args, store: ContextStore):
    """Load --state-file into the store and bump the use counter.

    Returns the key set to persist after the run, or None without
    --state-file. A missing file counts as an empty state.
    """
    if not args.state_file:
        return None
    loaded = ContextStore()
    try:
        if Path(args.state_file).exists():
            loaded = load_state(_read(args.state_file))
        count = loaded.get_feature(USE_COUNT) if loaded.has_feature(USE_COUNT) else 0
        if type(count) is not int:  # bool is an int subclass
            raise MalformedStateFile(f"{USE_COUNT} must be an int, not {type_name(count)}")
    except (OSError, MalformedStateFile) as e:  # OSError: from exists()
        raise _fail(args.state_file, e) from e
    for key in loaded.keys():
        store.set_feature(key, loaded.get_feature(key))
    store.set_feature(USE_COUNT, count + 1)
    return set(loaded.keys()) | {USE_COUNT}


def _check_state_types(args, store: ContextStore, scenario: Scenario, rules: RuleSet) -> None:
    """The one type check before E0: a feature has one type across the
    store (the state file's values and the use counter), the values the
    scenario sets and the constants set_feature writes. The scenario gives
    each feature one type (parse_scenario) and so do the rules (validate);
    a conflict with the state file is blamed on it, any other on the rule."""
    held = {feature: type_name(store.get_feature(feature)) for feature in store.keys()}
    from_state = set(held)
    for feature, value in itertools.chain(scenario.initial, *(ev.sets for ev in scenario.events)):
        kind = type_name(value)
        if held.setdefault(feature, kind) != kind:
            raise _fail(args.state_file, f"{feature} holds {held[feature]}, but the scenario sets {kind}")
    for rule in rules.rules:
        for action in rule.actions:
            feature = action.feature
            if feature is None or feature not in held or held[feature] == type_name(action.value):
                continue
            kind = type_name(action.value)
            if feature in from_state:
                message = f"{feature} holds {held[feature]}, but rule {rule.id!r} writes {kind}"
                raise _fail(args.state_file, message)
            message = f"rule {rule.id!r} writes {feature} as {kind}, but the scenario sets {held[feature]}"
            raise _fail(f"{args.rules}:{rule.line}", message)


def _save_state(args, store: ContextStore, persist_keys) -> None:
    """Write the state file whole or not at all: the text goes to a temporary
    file beside it, which then replaces it."""
    if persist_keys is None:
        return
    path = Path(args.state_file)
    text = save_state(store, persist_keys)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    f = open(tmp, "w", encoding="utf-8")
    try:
        with f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _run(args) -> tuple[int, str]:
    """Shared run pipeline; returns (exit code, trace text).

    A --trace file is written before the state file is saved, so a trace
    that cannot be written leaves the state file as it was."""
    try:
        rules, scene, workflow = _load_inputs(args)
        scenario = _parse(args.scenario, parse_scenario)
    except _InputError:
        return EXIT_INPUT_ERROR, ""
    if _report_diagnostics(args, validate(rules, scene, workflow)):
        return EXIT_INPUT_ERROR, ""
    store = ContextStore()
    try:
        persist_keys = _prepare_state(args, store)
        _check_state_types(args, store, scenario, rules)
    except _InputError:
        return EXIT_INPUT_ERROR, ""
    try:
        trace = run_scenario(
            rules,
            scene,
            scenario,
            workflow=workflow,
            store=store,
            max_cascade_depth=args.max_cascade,
        )
        code, text = EXIT_OK, trace.render()
    except AdaptError as e:
        partial = getattr(e, "trace", None)
        print(f"runtime error: {e}", file=sys.stderr)
        code, text = EXIT_RUNTIME_ERROR, partial.render() if partial is not None else ""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        try:
            Path(trace_path).write_text(text, encoding="utf-8")
        except OSError as e:
            _fail(trace_path, e.strerror or e)
            return EXIT_INPUT_ERROR, ""
    try:
        _save_state(args, store, persist_keys)
    except OSError as e:
        _fail(args.state_file, e.strerror or e)
        return EXIT_INPUT_ERROR, ""
    return code, text


def cmd_run(args) -> int:
    code, text = _run(args)
    if code != EXIT_INPUT_ERROR and not args.trace:
        sys.stdout.write(text)
    return code


def cmd_verify(args) -> int:
    try:
        golden = _read(args.golden)
    except _InputError:
        return EXIT_INPUT_ERROR
    code, text = _run(args)
    if code != EXIT_OK:
        return code
    verdict = compare_traces(text, golden)
    if verdict.match:
        return EXIT_OK
    print(f"trace mismatch at line {verdict.line}", file=sys.stderr)
    print(f"  expected: {verdict.expected if verdict.expected is not None else '<end of trace>'}", file=sys.stderr)
    print(f"  actual:   {verdict.actual if verdict.actual is not None else '<end of trace>'}", file=sys.stderr)
    return EXIT_MISMATCH


def _cascade_depth(text: str) -> int:
    """argparse type of --max-cascade: an integer of at least 1, in ASCII digits."""
    depth = int(text) if text.isascii() and text.isdigit() else 0
    if depth < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return depth


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptkit", description="Context adaptation engine: check, run, and verify scenarios."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate rule/scene/workflow files")
    check.add_argument("--rules", required=True)
    check.add_argument("--scene")
    check.add_argument("--workflow")
    check.set_defaults(func=cmd_check)

    run = sub.add_parser("run", help="replay a scenario and emit its trace")
    run.add_argument("--rules", required=True)
    run.add_argument("--scene", required=True)
    run.add_argument("--scenario", required=True)
    run.add_argument("--workflow")
    run.add_argument("--trace", help="write the trace here instead of stdout")
    run.add_argument("--state-file", help="persist features (and the use counter) across runs")
    run.add_argument("--max-cascade", type=_cascade_depth, default=DEFAULT_MAX_CASCADE_DEPTH)
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="replay a scenario and compare against a golden trace")
    verify.add_argument("--rules", required=True)
    verify.add_argument("--scene", required=True)
    verify.add_argument("--scenario", required=True)
    verify.add_argument("--workflow")
    verify.add_argument("--golden", required=True)
    verify.add_argument("--state-file")
    verify.add_argument("--max-cascade", type=_cascade_depth, default=DEFAULT_MAX_CASCADE_DEPTH)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return e.code
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
