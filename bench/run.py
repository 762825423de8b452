"""adaptkit benchmark: one command, three generated workloads.

    python3 bench/run.py --workload wide_rules --seed 1 --seconds 12 --trace 0

Run from the repository root. The workload is generated from ``--seed`` as
rules, scene, workflow and scenario text, written to a temporary directory
under ``.bench_out/``, and driven through the public API and, for
``verify_s``, through ``adaptkit.cli.main(["verify", ...])`` in-process.
Every run first checks the program's outputs (untimed) against the
benchmark's own computations and the shipped golden traces.

``--trace 0`` measures the end-to-end metrics for about ``--seconds``
seconds, in whole rounds (at least three) of set-ups, a replay and verify
calls. Each sample is normalised for machine speed (see ``speed.py``); each
event keeps the median of its times over the rounds, and set-up and verify
the median of their samples. ``--trace 1`` makes separate traced passes and
reports the per-layer metrics; its spans go to
``.bench_out/spans-<workload>.jsonl``. bench/README.md has the details.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
from speed import NOMINAL_REF_S, SpeedLog, time_reference  # noqa: E402

SETUPS_PER_ROUND = 5
VERIFIES_PER_ROUND = 2
MIN_ROUNDS = 3
REF_EVERY_S = 0.05  # reference timing interval while samples are taken
TRACED_ROUNDS = 2


def _import_program():
    src = ROOT / "src"
    if not (src / "adaptkit" / "__init__.py").is_file():
        print(f"benchmark: no adaptkit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import adaptkit
    import adaptkit.cli

    return adaptkit, adaptkit.cli


def _count_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


class Bench:
    def __init__(self, ak, cli, workload: gen.Workload, files: dict, checker: checks.Checker):
        self.ak = ak
        self.cli = cli
        self.w = workload
        self.checker = checker
        self.verify_argv = checks.verify_args(files["rules"], files["scene"], files["scenario"],
                                              files["golden"], files["workflow"])

    def setup(self):
        """Parse the four texts, validate, build the engine and run E0."""
        ak, w = self.ak, self.w
        rules = ak.parse_rules(w.rules)
        scene = ak.parse_scene(w.scene)
        workflow = ak.parse_workflow(w.workflow)
        scenario = ak.parse_scenario(w.scenario)
        diags = ak.validate(rules, scene, workflow)
        if any(d.severity == "error" for d in diags):
            raise ak.ValidationFailed("generated workload does not validate")
        store = ak.ContextStore()
        for feature, value in scenario.initial:
            store.set_feature(feature, value)
        engine = ak.init_engine(rules, scene, store, workflow)
        return engine, scenario

    def replay(self, engine, scenario, speed: SpeedLog | None = None, on_event=None, tracer=None):
        """Process every event; returns (seconds, start, end) per event, the
        seconds net of the speed log's handler.

        With a tracer, everything alive before an event is frozen out of
        the collector, so collections do not scan the spans kept so far and
        their pauses do not land on whichever span happens to trigger them."""
        times = []
        clock = time.perf_counter
        for i, event in enumerate(scenario.events, start=1):
            sets = list(event.sets)
            if tracer is not None:
                gc.freeze()
                tracer.event = i
            stolen = speed.stolen if speed is not None else 0.0
            t0 = clock()
            report = engine.process_event(sets)
            t1 = clock()
            if tracer is not None:
                tracer.event = None
            if speed is not None:
                stolen = speed.stolen - stolen
            times.append((t1 - t0 - stolen, t0, t1))
            if on_event is not None:
                on_event(i, engine, report)
        return times

    def verify(self) -> int:
        return checks.quiet_main(self.cli, self.verify_argv)


def checked_replay(bench: Bench, checker: checks.Checker) -> tuple[str, float]:
    """Untimed replay with the per-event checks; returns the rendered trace
    and the tracemalloc peak over set-up, replay and render, in MB. The
    checks allocate little and free it at once, so the peak is the
    program's."""
    gc.collect()
    tracemalloc.start()
    try:
        engine, scenario = bench.setup()
        checker.after_init(engine)
        bench.replay(engine, scenario, on_event=checker.after_event)
        text = engine.trace.render()
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    checker.after_replay(engine)
    return text, peak


def _timed(speed: SpeedLog, fn):
    stolen = speed.stolen
    t0 = time.perf_counter()
    result = fn()
    t1 = time.perf_counter()
    return result, (t1 - t0 - (speed.stolen - stolen), t0, t1)


def measure(bench: Bench, golden: str, seconds: float) -> tuple[dict, dict]:
    """Timed rounds; returns (normalised end-to-end metrics, raw figures)."""
    setups, verifies, replays = [], [], []
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the collector's scans
    start = time.perf_counter()
    rounds = 0
    with SpeedLog(REF_EVERY_S) as speed:
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            gc.collect()
            for _ in range(SETUPS_PER_ROUND):
                (engine, scenario), sample = _timed(speed, bench.setup)
                setups.append(sample)
            replays.append(bench.replay(engine, scenario, speed))
            # every replay must render the same bytes as the checked one
            bench.checker.record(engine.trace.render() == golden, f"round {rounds} replay renders the checked trace")
            del engine
            for _ in range(VERIFIES_PER_ROUND):
                gc.collect()
                code, sample = _timed(speed, bench.verify)
                verifies.append(sample)
                bench.checker.record(code == 0, f"round {rounds} verify exit code {code}")
            rounds += 1

    def figures(events, setup, verify):
        deciles = statistics.quantiles(events, n=10)
        return {
            "setup_s": setup,
            "events_per_s": len(events) / sum(events),
            "event_p50_us": statistics.median(events) * 1e6,
            "event_p90_us": deciles[8] * 1e6,
            "verify_s": verify,
        }

    def estimate(normed: bool) -> dict:
        def value(sample):
            return speed.normalise(sample) if normed else sample[0]

        med = statistics.median
        events = [med([value(r[i]) for r in replays]) for i in range(len(replays[0]))]
        return figures(events, med([value(s) for s in setups]), med([value(v) for v in verifies]))

    metrics = estimate(True)
    raw = estimate(False)
    raw["rounds"] = rounds
    raw["reference_ms_min"] = min(speed.ref) * 1e3
    raw["reference_ms_median"] = statistics.median(speed.ref) * 1e3
    return metrics, raw


def traced(bench: Bench, out_dir: Path) -> dict:
    """Per-layer metrics from the fastest of a few traced passes, plus the
    tracing overhead (traced over untraced replay time, best of each; the
    untraced and traced replays alternate, so both see the same drift)."""
    w = bench.w
    lines = {k: _count_lines(getattr(w, k)) for k in ("rules", "scene", "workflow", "scenario")}
    tracer = layers.Tracer()
    untraced = []
    best = None
    for _ in range(TRACED_ROUNDS):
        gc.collect()
        engine, scenario = bench.setup()
        # the same freezing as the traced replay, with tracing off
        untraced.append(sum(t[0] for t in bench.replay(engine, scenario, tracer=layers.Tracer())))
        gc.unfreeze()
        del engine
        tracer.reset()
        gc.collect()
        ref = min(time_reference() for _ in range(3))
        tracer.install()
        try:
            engine, scenario = bench.setup()
            e0_lines = len(engine.trace)
            replay_time = sum(t[0] for t in bench.replay(engine, scenario, tracer=tracer))
            engine.trace.render()
            code = bench.verify()
        finally:
            tracer.uninstall()
            gc.unfreeze()
        bench.checker.record(code == 0, f"traced verify exit code {code}")
        if best is None or replay_time < best[0]:
            metrics = layers.layer_metrics(
                tracer.spans, engine.rules, len(scenario.events), lines, len(engine.trace),
                len(engine.trace) - e0_lines, NOMINAL_REF_S / ref,
            )
            best = (replay_time, metrics, list(tracer.spans))
        del engine
    replay_time, metrics, spans = best
    metrics["bench.tracing_overhead"] = replay_time / min(untraced)
    layers.write_spans(spans, out_dir / f"spans-{w.name}.jsonl")
    return metrics


def _units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="adaptkit benchmark")
    p.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ak, cli = _import_program()
    workload = gen.GENERATORS[args.workload](args.seed)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        files = {}
        for kind in ("rules", "scene", "workflow", "scenario"):
            files[kind] = tmp / f"{workload.name}.{kind}"
            files[kind].write_text(getattr(workload, kind), encoding="utf-8")
        files["golden"] = tmp / "golden.trace"
        checker = checks.CHECKERS[workload.name](ak, workload)
        bench = Bench(ak, cli, workload, files, checker)

        golden, peak_mb = checked_replay(bench, checker)
        files["golden"].write_text(golden, encoding="utf-8")
        checks.check_altered_golden(cli, checker, bench.verify_argv, golden, tmp)
        checks.check_fixtures(ak, cli, checker, ROOT / "fixtures", tmp)

        if args.trace:
            values = traced(bench, out_dir)
            units = _units("per_layer")
            raw = None
        else:
            values, raw = measure(bench, golden, args.seconds)
            values["peak_mem_mb"] = peak_mb
            units = _units("end_to_end")

    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units.get(name, '')}")
    if raw is not None:
        print(json.dumps({"raw": raw}))
    for name in units:
        if name not in values:
            print(f"{name}: absent (the traced pass never called what it measures)", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
