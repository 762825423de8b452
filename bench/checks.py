"""Correctness checks, run untimed in every benchmark run.

Each workload has a checker built from the generator's model. It follows
the scenario with its own arithmetic (feature values, distances, yaws,
chain states) and compares the engine's state and trace after every event.
The fixture checks replay every shipped scenario against its golden trace,
which is the repository's specification.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import gen


def _cond_lines(lines: list[str]) -> dict:
    out = {}
    for line in lines:
        parts = line.split()
        if parts[3] == "COND":
            out[parts[4]] = parts[6] == "true"
    return out


class Checker:
    """Counts checked operations; a failed check fails its operation."""

    def __init__(self, ak, workload: gen.Workload):
        self.ak = ak
        self.w = workload
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {self.w.name}: {what}", file=sys.stderr)

    # called with the engine after init (E0) and after each event i >= 1
    def after_init(self, engine) -> None:
        pass

    def after_event(self, i: int, engine, report) -> None:
        pass

    def after_replay(self, engine) -> None:
        pass


class WideRulesChecker(Checker):
    """Rules active exactly when their conditions hold; COND lines name the flips."""

    def __init__(self, ak, workload):
        super().__init__(ak, workload)
        self.values = dict(workload.initial)
        self.conds = workload.model["conditions"]
        self.rules = workload.model["rules"]
        self.prev = None

    def _cond_values(self) -> dict:
        v = self.values
        return {cid: all(gen.compare(op, v[f], t) for f, op, t in terms) for cid, terms in self.conds}

    def _check(self, engine, expected_conds: dict) -> bool:
        # the trace lines since the previous check are this event's
        lines = [ev.render() for ev in engine.trace.events[self.mark:]]
        self.mark = len(engine.trace)
        if _cond_lines(lines) != expected_conds:
            return False
        cur = self.prev
        return all(engine.rule_active(rid) == all(cur[c] for c in cids) for rid, cids in self.rules)

    def after_init(self, engine) -> None:
        self.mark = 0
        self.prev = self._cond_values()
        # the first evaluation reports every condition
        self.record(self._check(engine, dict(self.prev)), "E0 conditions and rule activity")

    def after_event(self, i, engine, report) -> None:
        self.values.update(self.w.events[i - 1])
        cur = self._cond_values()
        flipped = {c: v for c, v in cur.items() if v != self.prev[c]}
        self.prev = cur
        self.record(self._check(engine, flipped), f"E{i} conditions and rule activity")


class TrackingChecker(Checker):
    """Billboard yaws, workflow step and the modality/detail adaptations."""

    def __init__(self, ak, workload):
        super().__init__(ak, workload)
        m = workload.model
        self.stations = list(m["stations"].values())
        self.billboards = m["billboards"]
        self.console = m["console"]
        self.luminance = workload.initial["env.luminance"]
        self.step = 0

    def _check(self, engine, pos) -> bool:
        ak = self.ak
        scene = engine.scene
        for bid, bpos in self.billboards.items():
            if scene.element(bid).yaw != gen.face_yaw(bpos, pos):
                return False
        # the workflow leaves a step once the user is inside its station's radius
        while self.step < len(self.stations) and gen.dist(pos, self.stations[self.step]) < gen.STATION_RADIUS:
            self.step += 1
        if engine.workflow.current_id != f"leg{self.step:02d}":
            return False
        panel = scene.element("instruction_panel")
        dark = self.luminance < gen.DARK_BELOW
        want_mod = ak.Modality.AUDIO if dark else ak.Modality.VISUAL
        if panel.modalities != frozenset({want_mod}):
            return False
        far = gen.dist(pos, self.console) > gen.FAR_RADIUS
        want_detail = ak.DetailLevel.REDUCED if far else ak.DetailLevel.FULL
        return panel.detail == want_detail and panel.text_size == (24.0 if far else 14.0)

    def after_init(self, engine) -> None:
        # E0 already aims the billboards at the initial position
        pos = self.w.initial["user.position"]
        self.record(self._check(engine, pos), "E0 billboards, workflow, modality, detail")

    def after_event(self, i, engine, report) -> None:
        sets = self.w.events[i - 1]
        self.luminance = sets.get("env.luminance", self.luminance)
        self.record(self._check(engine, sets["user.position"]), f"E{i} billboards, workflow, modality, detail")


class CascadeChecker(Checker):
    """Chain features follow their triggers; cycle counts match the depth."""

    def __init__(self, ak, workload):
        super().__init__(ak, workload)
        self.chains = [[ak.FeatureId.parse(f) for f in feats] for feats in workload.model["chain_features"]]
        self.cycles = workload.model["cycles"]

    def after_event(self, i, engine, report) -> None:
        store = engine.store
        ok = report.cycles == self.cycles[i - 1]
        for feats in self.chains:
            trig = store.get_feature(feats[0])
            ok = ok and all(store.get_feature(f) == trig for f in feats[1:])
        self.record(ok, f"E{i} chain features and cycle count")

    def after_replay(self, engine) -> None:
        last = {}
        ok = True
        for ev in engine.trace.events:
            parts = ev.body.split()
            if parts[0] == "RULE":
                executed = parts[2] == "EXECUTED"
                ok = ok and last.get(parts[1], False) != executed
                last[parts[1]] = executed
        self.record(ok, "RULE EXECUTED/UNEXECUTED alternate per rule")


CHECKERS = {
    "wide_rules": WideRulesChecker,
    "tracking_stream": TrackingChecker,
    "cascade_churn": CascadeChecker,
}


# ---------------------------------------------------------------------------
# shipped fixtures and the verify exit codes

_FIXTURE_RUNS = [
    # (rules, scene, workflow, scenario, golden)
    ("printer/printer.rules", "printer/printer.scene", None, "printer/dark_switch.scenario", "printer/golden/dark_switch.trace"),
    ("printer/printer.rules", "printer/printer.scene", None, "printer/face_user.scenario", "printer/golden/face_user.trace"),
    ("printer/printer.rules", "printer/printer.scene", None, "printer/walk_away.scenario", "printer/golden/walk_away.trace"),
    ("warehouse/warehouse.rules", "warehouse/warehouse.scene", "warehouse/single_order.workflow",
     "warehouse/single_order.scenario", "warehouse/golden/single_order.trace"),
    ("warehouse/warehouse.rules", "warehouse/warehouse.scene", "warehouse/multi_order.workflow",
     "warehouse/multi_order_complete.scenario", "warehouse/golden/multi_order_complete.trace"),
    ("warehouse/warehouse.rules", "warehouse/warehouse.scene", "warehouse/multi_order.workflow",
     "warehouse/multi_order_exception.scenario", "warehouse/golden/multi_order_exception.trace"),
    ("cascade/chain.rules", "cascade/chain.scene", None, "cascade/chain.scenario", "cascade/golden/chain.trace"),
]


def verify_args(rules, scene, scenario, golden, workflow=None, state_file=None) -> list[str]:
    argv = ["verify", "--rules", str(rules), "--scene", str(scene), "--scenario", str(scenario), "--golden", str(golden)]
    if workflow is not None:
        argv += ["--workflow", str(workflow)]
    if state_file is not None:
        argv += ["--state-file", str(state_file)]
    return argv


def quiet_main(cli, argv) -> int:
    """cli.main with its diagnostics kept off the benchmark's output."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def check_fixtures(ak, cli, checker: Checker, fixtures: Path, scratch: Path) -> None:
    for rules, scene, workflow, scenario, golden in _FIXTURE_RUNS:
        argv = verify_args(fixtures / rules, fixtures / scene, fixtures / scenario, fixtures / golden,
                           fixtures / workflow if workflow else None)
        checker.record(quiet_main(cli, argv) == 0, f"fixture {scenario} matches {golden}")
    # first_uses: five runs show the hints, the sixth does not
    state = scratch / "first_uses.state"
    state.unlink(missing_ok=True)
    for run in range(1, 7):
        golden = "first_uses_new.trace" if run <= 5 else "first_uses_experienced.trace"
        argv = verify_args(fixtures / "printer/printer.rules", fixtures / "printer/printer.scene",
                           fixtures / "printer/first_uses.scenario", fixtures / "printer/golden" / golden,
                           state_file=state)
        checker.record(quiet_main(cli, argv) == 0, f"fixture first_uses run {run} matches {golden}")
    # the oscillator never settles and stops at the default bound
    texts = [(fixtures / "cascade" / f).read_text(encoding="utf-8")
             for f in ("oscillator.rules", "oscillator.scene", "oscillator.scenario")]
    try:
        ak.run_scenario(ak.parse_rules(texts[0]), ak.parse_scene(texts[1]), ak.parse_scenario(texts[2]))
        ok = False
    except ak.NonQuiescent as e:
        ok = e.depth == 16 and e.trace.events[-1].body == "NONQUIESCENT depth=16"
    checker.record(ok, "oscillator ends in NonQuiescent at depth 16")


def check_altered_golden(cli, checker: Checker, verify_argv: list, golden_text: str, scratch: Path) -> None:
    """verify exits 1 against the library's rendering with one line altered.

    (That it exits 0 against the unaltered rendering is checked by every
    timed verify.)"""
    lines = golden_text.splitlines(keepends=True)
    mid = len(lines) // 2
    lines[mid] = lines[mid].rstrip("\n") + " altered\n"
    altered = scratch / "altered.trace"
    altered.write_text("".join(lines), encoding="utf-8")
    argv = list(verify_argv)
    argv[argv.index("--golden") + 1] = str(altered)
    checker.record(quiet_main(cli, argv) == 1, "verify reports the altered line")
