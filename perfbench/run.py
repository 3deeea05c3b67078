"""Benchmark of the shirshov engine: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload complete-monoid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The engine is imported from ``src/``.  Inputs come from ``--seed`` only.
The command repeats rounds of the workload's four phases (complete, check,
nf, irr) for ``--seconds`` seconds, one operation at a time (closed loop,
one client), checks every answer and prints one metric per line, then a
JSON summary as the last line.  ``--trace 1`` runs half the time untraced
and half with spans around the engine's public functions, and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
Scratch files and span dumps go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PROCESS_START = perf_counter()

import oracles  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import FAILED, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
# Machine speed drifts by up to +-30% within a minute on small shared VMs,
# alike for the engine and for a fixed pure-Python loop.  Every reported
# time is scaled to the speed at which ``_calibration_loop`` takes
# REFERENCE_CALIBRATION_S, judged from the calibrations within
# CALIBRATION_WINDOW_S of the operation.
REFERENCE_CALIBRATION_S = 0.010
CALIBRATION_INTERVAL_S = 1.0
CALIBRATION_WINDOW_S = 10.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "complete_s": ("s", "lower"),
    "check_s": ("s", "lower"),
    "nf_ms.p50": ("ms", "lower"),
    "nf_ms.p95": ("ms", "lower"),
    "irr_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
COMPLETION_COUNTERS = (
    "compositions_processed",
    "compositions_skipped",
    "rules_added",
    "rules_retired",
    "reduction_steps",
)
EXTRA_COUNTS = (
    "words.find_intersections.overlaps",
    "words.find_inclusions.overlaps",
    "complete.compositions.out",
    "rewrite.reduce_with_steps.steps",
    "rewrite.irr_words.words",
    "lie.pbw_basis.monomials",
)


def per_layer_definitions() -> dict:
    """name -> (unit, better) for every metric of the traced run."""
    out = {}
    for _m, _p, name, _e, _c in TARGETS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    for name in EXTRA_COUNTS:
        out[name] = ("count", "lower")
    out["rewrite.RuleSet.leftmost_match.hit_ratio"] = ("ratio", "higher")
    for key in COMPLETION_COUNTERS:
        out[f"complete.{key}"] = ("count", "lower")
    out["complete.adjoin_ratio"] = ("ratio", "higher")
    out["trace.overhead_s"] = ("s", "lower")
    return out


PER_LAYER = per_layer_definitions()


class UsageError(Exception):
    pass


def engine_init() -> Path:
    init = SRC / "shirshov" / "__init__.py"
    if not init.is_file():
        raise UsageError(f"no engine sources at {init}; run from the repository root")
    return init


def import_engine():
    """Import the engine from src/ afresh, dropping any earlier import."""
    init = engine_init()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "shirshov" or n.startswith("shirshov.")]:
        del sys.modules[name]
    engine = importlib.import_module("shirshov")
    if Path(engine.__file__).resolve() != init.resolve():
        raise UsageError(f"imported shirshov from {engine.__file__}, not from {init}")
    importlib.import_module("shirshov.cli")
    return engine


def _calibration_loop() -> int:
    """Fixed pure-Python work like the engine's: tuple-keyed dicts, a keyed sort."""
    counts: dict = {}
    kept = []
    for i in range(10000):
        key = (i % 97, i % 89, i % 7)
        counts[key] = counts.get(key, 0) + 1
        if i % 3 == 0:
            kept.append((key, i))
    kept.sort(key=lambda t: (len(t[0]), t[0]), reverse=True)
    return len(counts) + len(kept)


def calibrate() -> float:
    """Current time of the calibration loop, median of three."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Times each operation and counts attempts and failures.

    Before an operation, the calibration loop runs if its last run is more
    than CALIBRATION_INTERVAL_S old.  ``speed_at`` turns the calibrations
    near a moment into the factor from wall seconds to reference-speed
    seconds.
    """

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failures: dict[tuple[int, str], str] = {}
        self.calibrations: list[tuple[float, float]] = []  # (when, loop seconds)
        self.calibrate()
        self.begin_round(0)

    def calibrate(self) -> None:
        self.calibrations.append((perf_counter(), calibrate()))

    def begin_round(self, index: int) -> None:
        self.round = index
        self.ops: list[tuple[str, str, float, float]] = []  # phase, label, start, seconds

    def speed_at(self, when: float) -> float:
        near = [c for t, c in self.calibrations if abs(t - when) <= CALIBRATION_WINDOW_S]
        if len(near) < 5:
            by_distance = sorted(self.calibrations, key=lambda tc: abs(tc[0] - when))
            near = [c for _t, c in by_distance[:5]]
        return REFERENCE_CALIBRATION_S / statistics.median(near)

    def fail(self, label: str, message: str, round_index: int | None = None) -> None:
        key = (self.round if round_index is None else round_index, label)
        self.failures.setdefault(key, message)

    def op(self, phase: str, label: str, fn, *args):
        if perf_counter() - self.calibrations[-1][0] > CALIBRATION_INTERVAL_S:
            self.calibrate()
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_job(label)
            tracer.active = True
        start = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # every raised error is a failed operation
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return FAILED
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
            self.ops.append((phase, label, start, elapsed))


def run_round(workload, runner: Runner, index: int, traced: bool) -> dict:
    # start every round from the same collector state, so that collections
    # fall at the same points of each round
    gc.collect()
    runner.begin_round(index)
    if runner.tracer is not None:
        runner.tracer.reset_totals()
    outputs, counters = workload.round(runner.op)
    rec = {
        "traced": traced,
        "ops": runner.ops,
        "wall": sum(op[3] for op in runner.ops),
        "outputs": outputs,
        "counters": counters,
    }
    if traced:
        t = runner.tracer
        rec["calls"] = dict(t.calls)
        rec["self_s"] = dict(t.self_s)
        rec["extra"] = dict(t.extra)
    return rec


def measure(workload, runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Rounds until the time is used; with trace, half untraced then half traced."""
    rounds: list[dict] = []
    start = perf_counter()

    def room(budget: float, done: list[dict]) -> bool:
        if not done:
            return True
        typical = statistics.median(r["wall"] for r in done)
        return perf_counter() - start + typical <= budget

    def one(traced: bool) -> dict:
        rec = run_round(workload, runner, len(rounds), traced)
        if rounds:
            repeat_check(runner, rounds, rec)
            rec["outputs"] = None  # only the first round's outputs are kept
        rounds.append(rec)
        return rec

    untraced: list[dict] = []
    while room(seconds / 2 if trace else seconds, untraced):
        untraced.append(one(False))
    if trace:
        runner.tracer = Tracer()
        runner.tracer.install()
        traced: list[dict] = []
        while room(seconds, traced):
            traced.append(one(True))
    runner.calibrate()
    return rounds


def repeat_check(runner: Runner, rounds: list[dict], rec: dict) -> None:
    """A later round must repeat the first round's outputs and counters exactly."""
    first = rounds[0]
    for label, value in rec["outputs"].items():
        if first["outputs"].get(label, value) != value:
            runner.fail(label, "output differs from the first round")
    if rec["counters"] != first["counters"]:
        runner.fail("counters", "completion counters differ from the first round")
    earlier = [r for r in rounds if r["traced"]]
    if rec["traced"] and earlier:
        if rec["calls"] != earlier[0]["calls"] or rec["extra"] != earlier[0]["extra"]:
            runner.fail("trace", "traced call counts differ between rounds")


def scale_rounds(runner: Runner, rounds: list[dict]) -> None:
    """Per round: phase sums and nf latencies, in wall and reference-speed seconds."""
    for rec in rounds:
        wall, phases, nf, speeds = Counter(), Counter(), {}, []
        for phase, label, start, seconds in rec["ops"]:
            speed = runner.speed_at(start + seconds / 2)
            speeds.append(speed)
            wall[phase] += seconds
            phases[phase] += seconds * speed
            if phase == "nf":
                nf[label] = seconds * speed
        rec.update(wall_phases=wall, phases=phases, nf=nf, e2e=sum(phases.values()))
        rec["speed"] = statistics.median(speeds)


def end_to_end_metrics(setup_s: list[float], rounds: list[dict]) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]

    def phase(name, key="phases"):
        return statistics.median(r[key].get(name, 0.0) for r in plain)

    per_word = defaultdict(list)
    for r in plain:
        for label, s in r["nf"].items():
            per_word[label].append(s)
    latencies = sorted(1000 * statistics.median(v) for v in per_word.values())
    p95 = statistics.quantiles(latencies, n=20)[-1]
    values = {
        "setup_s": statistics.median(setup_s),
        "complete_s": phase("complete"),
        "check_s": phase("check"),
        "nf_ms.p50": statistics.median(latencies),
        "nf_ms.p95": p95,
        "irr_s": phase("irr"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "rounds": len(plain),
        "nf_words": len(latencies),
        "nf_words_beyond_p95": sum(1 for x in latencies if x > p95),
        "wall": {p: phase(p, "wall_phases") for p in ("complete", "check", "nf", "irr")},
    }
    return values, info


def completion_metrics(counters: Counter) -> dict:
    out = {f"complete.{k}": counters[k] for k in COMPLETION_COUNTERS}
    certificates = counters["certificates"]
    out["complete.adjoin_ratio"] = counters["adjoined"] / certificates if certificates else 0.0
    return out


def per_layer_metrics(rounds: list[dict]) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]
    values = {}
    for _m, _p, name, _e, _c in TARGETS:
        values[f"{name}.calls"] = first["calls"].get(name, 0)
        values[f"{name}.self_s"] = statistics.median(
            r["speed"] * r["self_s"].get(name, 0.0) for r in traced
        )
    for name in EXTRA_COUNTS:
        values[name] = first["extra"].get(name, 0)
    calls = first["calls"].get("rewrite.RuleSet.leftmost_match", 0)
    hits = first["extra"].get("rewrite.RuleSet.leftmost_match.hits", 0)
    values["rewrite.RuleSet.leftmost_match.hit_ratio"] = hits / calls if calls else 0.0
    values.update(completion_metrics(first["counters"]))
    values["trace.overhead_s"] = statistics.median(r["e2e"] for r in traced) - statistics.median(
        r["e2e"] for r in plain
    )
    return values


def report(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name][0]} for name in units}


def run(args) -> int:
    cls = WORKLOADS[args.workload]
    engine_init()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))

    runner = Runner()
    setups = []
    first_op_s = None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        engine = import_engine()
        workload = cls(engine, args.seed, workdir)
        setups.append((start, perf_counter() - start))
        if first_op_s is None:
            first_op_s = perf_counter() - PROCESS_START
        runner.calibrate()

    rounds = measure(workload, runner, args.seconds, bool(args.trace))
    for label, message in workload.verify(rounds[0]["outputs"]):
        runner.fail(label, message, 0)

    scale_rounds(runner, rounds)
    setup_s = [s * runner.speed_at(t + s / 2) for t, s in setups]
    e2e, info = end_to_end_metrics(setup_s, rounds)
    failed = len(runner.failures)
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END[name][0]}")
    print(f"failed_frac {failed / runner.attempted:.6g} ratio")
    print(f"# process start to first timed operation: {first_op_s:.4f} s (wall)")
    print(f"# untraced rounds: {info['rounds']}; operations attempted: {runner.attempted}")
    print(f"# nf words: {info['nf_words']}, beyond p95: {info['nf_words_beyond_p95']}")
    print(f"# calibrations: {len(runner.calibrations)}; wall-clock phase medians (s): "
          + ", ".join(f"{k}={v:.6g}" for k, v in info["wall"].items())
          + f"; wall setup_s={statistics.median(s for _t, s in setups):.6g}")
    for phase in ("complete", "check", "nf", "irr"):
        times = " ".join(f"{r['phases'].get(phase, 0.0):.3f}" for r in rounds)
        print(f"# {phase} per round (s): {times}")
    counters = completion_metrics(rounds[0]["counters"])
    print("# work counters per round: " + ", ".join(f"{k}={v:.6g}" for k, v in counters.items()))
    for (r_index, label), message in sorted(runner.failures.items())[:20]:
        print(f"FAILED round {r_index} {label}: {message}", file=sys.stderr)

    if args.trace:
        layer = per_layer_metrics(rounds)
        for name, value in layer.items():
            print(f"{name} {value:.6g} {PER_LAYER[name][0]}")
        spans = runner.tracer.write(OUT / f"spans-{args.workload}.csv.gz")
        print(f"# spans written: {spans}")
        metrics = report(layer, PER_LAYER)
    else:
        metrics = report(e2e, END_TO_END)

    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def self_test() -> int:
    """Plant a wrong normal form and a wrong basis size; both must be caught."""
    from workloads import CompleteMonoid

    ok = True
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        doc = json.loads(spec.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in doc[key]}
            if listed != table:
                print(f"BENCHMARK.json {key} disagrees with perfbench/run.py")
                ok = False
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = CompleteMonoid(import_engine(), 0, Path(tmp))
        runner = Runner()
        outputs, _ = workload.round(runner.op)
        clean = workload.verify(outputs)
        print(f"clean round: {len(runner.failures) + len(clean)} errors")
        ok &= not runner.failures and not clean

        label = next(f"nf:{i}" for i, (_n, w) in enumerate(workload.words) if len(w) >= 8)
        nf = outputs[label]
        i = next(i for i in range(len(nf) - 1) if nf[i] != nf[i + 1])
        planted = dict(outputs)
        planted[label] = nf[:i] + (nf[i + 1], nf[i]) + nf[i + 2 :]
        caught = [e for lab, e in workload.verify(planted) if lab == label]
        print(f"planted wrong normal form at {label}: caught {caught[:2]}")
        ok &= bool(caught)

        code, text = outputs["complete:chinese-5"]
        doc = json.loads(text)
        doc["basis"] = doc["basis"][:-1]
        planted = dict(outputs)
        planted["complete:chinese-5"] = (code, json.dumps(doc))
        caught = [e for lab, e in workload.verify(planted) if lab == "complete:chinese-5"]
        print(f"planted basis of 49 rules for chinese-5: caught {caught[:2]}")
        ok &= bool(caught)

        caught = oracles.plactic_errors((0, 1, 2), (2, 1, 0))
        print(f"planted plactic normal form cba for abc: caught {caught}")
        ok &= bool(caught)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
