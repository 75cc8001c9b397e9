#!/usr/bin/env python3
"""lqlang benchmark: end-to-end and per-layer numbers for four workloads.

One workload, one process, a closed loop with one client (the next program
starts when the previous one has its verified answer)::

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's layer functions, records spans and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any answer differs from its reference, 2 when the library cannot be
found.

    python3 perfbench/run.py --all        # every workload, untraced then
                                          # traced, plus tracing overhead
    python3 perfbench/run.py --selftest   # exact counts repeat across runs
                                          # and PYTHONHASHSEED values

Workloads (why each was chosen: BENCHMARK.json and README.md):

* ``fuzz``: ``harness.fuzz`` on the fixed generator seeds 0-15, one at a
  time, the ``lq fuzz`` path.
* ``check``: parse and typecheck only, the ``lq check`` path, over the
  corpus and composed 10-100 KB programs.
* ``deep``: ``lq run --sem=both`` on recursion- and nesting-depth families.
* ``arrays``: ``lq run --sem=both`` on array write/read families.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import programs  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("fuzz", "check", "deep", "arrays")
FUEL = 100_000          # lq's default --fuel
RECURSION_LIMIT = 20_000  # as lq's main() sets it
SETUP_STARTS = 12
FAMILIES = ("tri", "add", "list", "write", "read", "mixed")
# End-to-end numbers of some workloads only; traced runs report them for
# every workload, as 0 where the workload does not exercise them.
WORKLOAD_SPECIFIC = {"ordinary.us_per_step": "us", "pure.us_per_step": "us",
                     "ordinary.growth": "slope", "pure.growth": "slope",
                     "state_checks_per_s": "1/s"}

# Prints the host's reference time around the start, then the start's time.
SETUP_SNIPPET = (
    "import statistics, time\n"
    "from hostspeed import reference_ms\n"
    "before = statistics.median(reference_ms() for _ in range(3))\n"
    "t0 = time.perf_counter()\n"
    "import lqlang\n"
    "lqlang.parse_prelude()\n"
    "t1 = time.perf_counter()\n"
    "after = statistics.median(reference_ms() for _ in range(3))\n"
    "print((before + after) / 2, t1 - t0)\n")


# ---------------------------------------------------------------------------
# Operations

@dataclass
class Op:
    """One program carried through the workload's path."""
    name: str
    family: str
    size: int
    wall: float = 0.0
    ok: bool = False
    error: Optional[str] = None       # exception type, if one escaped
    front: float = 0.0                # parse + check + to_sharing
    ordinary: float = 0.0             # eval_term + deep force
    pure: float = 0.0                 # initial_state + eval_pure + force
    ordinary_steps: int = 0
    pure_steps: int = 0
    state_checks: int = 0
    layers: dict[str, float] = field(default_factory=dict)  # traced only
    scale: float = 1.0                # host speed factor, see hostspeed.py


class Library:
    """The lqlang entry points the workloads call directly."""

    def __init__(self) -> None:
        self.harness = importlib.import_module("lqlang.harness")
        self.parser = importlib.import_module("lqlang.parser")
        self.typecheck = importlib.import_module("lqlang.typecheck")
        self.translate = importlib.import_module("lqlang.translate")
        self.eval_ordinary = importlib.import_module("lqlang.eval_ordinary")
        self.eval_pure = importlib.import_module("lqlang.eval_pure")
        self.diagnostics = importlib.import_module("lqlang.diagnostics")
        self.pretty = importlib.import_module("lqlang.pretty")
        self.prelude = self.parser.parse_prelude()


def run_both(lib: Library, tr, prog: programs.Program,
             sems: tuple[str, ...] = ("ordinary", "pure"),
             fuel: int = FUEL) -> Op:
    """The ``lq run --sem=both`` path, each result forced and compared
    with the program's reference answer."""
    op = Op(prog.name, prog.family, prog.size)
    h = lib.harness
    t0 = perf_counter()
    tr.count("parser.parse_program.bytes", len(prog.text))
    sf = tr.call("parser.parse_program", lib.parser.parse_program,
                 prog.text, base=lib.prelude)
    checked = tr.call("typecheck.check_program",
                      lib.typecheck.check_program, sf.decls, sf.defs, sf.main)
    sharing = tr.call("translate.to_sharing", lib.translate.to_sharing,
                      checked.term, checked.env)
    t1 = perf_counter()
    op.front = t1 - t0
    answers = []
    if "ordinary" in sems:
        res = tr.call("eval_ordinary.eval_term", lib.eval_ordinary.eval_term,
                      lib.eval_ordinary.Heap(), sharing, fuel)
        tree = None
        if res.outcome.is_value:
            tree, _ = tr.call("harness.deep_force_ordinary",
                              h.deep_force_ordinary, res, res.outcome.value,
                              fuel)
        t2 = perf_counter()
        op.ordinary, op.ordinary_steps = t2 - t1, res.steps
        answers.append(tree)
        t1 = t2
    if "pure" in sems:
        state = tr.call("eval_pure.initial_state",
                        lib.eval_pure.initial_state, sharing, checked.ty,
                        checked.env)
        pres = tr.call("eval_pure.eval_pure", lib.eval_pure.eval_pure,
                       state, fuel)
        tree = None
        if pres.outcome.is_value:
            tree, _ = tr.call("harness.deep_force_pure", h.deep_force_pure,
                              pres, pres.outcome.value, checked.env, fuel)
        t2 = perf_counter()
        op.pure, op.pure_steps = t2 - t1, pres.steps
        answers.append(tree)
    op.wall = perf_counter() - t0
    op.ok = all(a == ("int", prog.expect) for a in answers)
    return op


def check_one(lib: Library, tr, prog: programs.Program) -> Op:
    """The ``lq check`` path: parse against the prelude, then typecheck.
    Composed programs must also get their intended type, Int."""
    op = Op(prog.name, prog.family, prog.size)
    t0 = perf_counter()
    try:
        tr.count("parser.parse_program.bytes", len(prog.text))
        sf = tr.call("parser.parse_program", lib.parser.parse_program,
                     prog.text, base=lib.prelude)
        checked = tr.call("typecheck.check_program",
                          lib.typecheck.check_program, sf.decls, sf.defs,
                          sf.main)
        verdict = "accept"
    except lib.diagnostics.CheckError:
        verdict, checked = "reject", None
    op.wall = perf_counter() - t0
    op.ok = verdict == prog.expect and (
        prog.family != "composed"
        or lib.pretty.show_type(checked.ty) == "Int")
    return op


def fuzz_one(lib: Library, tr, seed: int, repro_dir: str) -> Op:
    """One program of ``lq fuzz``: generate, check, run both evaluators,
    compare, then the instrumented preservation run."""
    h = lib.harness
    op = Op(f"fuzz-{seed}", "fuzz", 1)
    t0 = perf_counter()
    summary = tr.call("harness.fuzz", h.fuzz, h.GenConfig(seed=seed),
                      count=1, fuel=FUEL, repro_dir=repro_dir)
    op.wall = perf_counter() - t0
    op.state_checks = summary.state_checks
    op.ok = summary.clean and summary.generation_failures == 0
    return op


def guarded(tr, name: str, fn: Callable[[], Op], family: str,
            size: int) -> Op:
    """Run one operation; an exception is a failed operation, not an
    aborted run."""
    tr.program = name
    first = len(tr.spans) if tr.enabled else 0
    t0 = perf_counter()
    try:
        op = tr.call("bench.program", fn)
    except Exception as exc:  # every failure is counted, the loop goes on
        op = Op(name, family, size, wall=perf_counter() - t0,
                error=type(exc).__name__)
        if not isinstance(exc, RecursionError):
            traceback.print_exc(file=sys.stderr)
    if tr.enabled:
        for s in tr.spans[first + 1:]:
            op.layers[s.name] = op.layers.get(s.name, 0.0) + s.end - s.start
    return op


# ---------------------------------------------------------------------------
# Timed loops

# The fuzz programs are a fixed set, GenConfig seeds 0-15; the run's seed
# only orders them.  Sixteen programs make a round of about 4 s, so a run
# repeats each program about seven times.  A fresh draw of generated
# programs per seed (their cost spans 10x) moved p90 by a third of its
# median over ten seeds.
FUZZ_SEEDS = range(16)


@dataclass(frozen=True)
class FuzzInput:
    """One ``lq fuzz`` program, named by its generator seed."""
    name: str
    family: str
    size: int
    seed: int


def fuzz_inputs() -> list[FuzzInput]:
    return [FuzzInput(f"fuzz-{s}", "fuzz", 1, s) for s in FUZZ_SEEDS]


def loop_rounds(tr, progs: list, run: Callable,
                rng: Optional[random.Random], seconds: float,
                max_ops: Optional[int]) -> tuple[list[Op], float]:
    """Whole rounds over a fixed program set, so every run sees the same
    mix.  A new round starts only if it should end within ``seconds``; the
    first round always runs.  ``rng`` shuffles each round's order."""
    run(progs[0])  # warm-up, untimed
    tr.reset()
    speed = hostspeed.HostSpeed()
    ops: list[Op] = []
    spans: list[tuple[float, float]] = []
    t0 = perf_counter()
    while True:
        order = list(progs)
        if rng is not None:
            rng.shuffle(order)
        r0 = perf_counter()
        for p in order:
            if max_ops is not None and len(ops) >= max_ops:
                break
            start = perf_counter()
            ops.append(guarded(tr, p.name, lambda p=p: run(p), p.family,
                               p.size))
            spans.append((start, perf_counter()))
            speed.sample()
        now = perf_counter()
        if (max_ops is not None and len(ops) >= max_ops) or (
                max_ops is None and (now - t0) + (now - r0) > seconds):
            break
    for op, (start, end) in zip(ops, spans):
        op.scale = speed.factor(start, end)
    return ops, now - t0


# ---------------------------------------------------------------------------
# Metrics

def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def growth(samples: dict[tuple[str, int], list[float]]) -> dict[str, float]:
    """Per family, the fitted slope over the median time of each size."""
    by_family: dict[str, list[tuple[int, float]]] = {}
    for (family, size), times in sorted(samples.items()):
        by_family.setdefault(family, []).append(
            (size, statistics.median(times)))
    return {f: loglog_slope(pts) for f, pts in by_family.items()
            if len(pts) >= 2}


def path_growth(ops: list[Op], attr: Callable[[Op], float]
                ) -> dict[str, float]:
    samples: dict[tuple[str, int], list[float]] = {}
    for op in ops:
        if op.ok and op.family in FAMILIES:
            samples.setdefault((op.family, op.size), []).append(attr(op))
    return growth(samples)


def program_ms(ops: list[Op], scaled: bool = True
               ) -> dict[str, list[float]]:
    """Wall times in ms of each distinct program's verified runs, scaled
    to the host's nominal speed unless ``scaled`` is false."""
    walls: dict[str, list[float]] = {}
    for op in ops:
        if op.ok:
            walls.setdefault(op.name, []).append(
                op.wall * 1000 * (op.scale if scaled else 1.0))
    return walls


def typical_ms(ops: list[Op]) -> list[float]:
    """One time per distinct program: the median of its scaled times,
    whose repeats are spread over the run.  One value per program keeps
    the percentiles off the number of rounds a run completes."""
    return [statistics.median(v) for v in program_ms(ops).values()]


def throughput(ops: list[Op]) -> float:
    """Verified programs per second of one round: the share of verified
    operations over the mean typical time of a program."""
    times_ms = typical_ms(ops)
    if not times_ms:
        return 0.0
    return (sum(op.ok for op in ops) / len(ops)
            * 1000 / statistics.fmean(times_ms))


def end_to_end(workload: str, ops: list[Op], setup_s: Optional[float]
               ) -> dict[str, tuple[float, str]]:
    good = [op for op in ops if op.ok]
    times_ms = typical_ms(ops) or [0.0]
    out = {
        "programs_per_s": (throughput(ops), "1/s"),
        "program_ms.p50": (statistics.median(times_ms), "ms"),
        "program_ms.p90": (p90(times_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "failed_ratio": ((len(ops) - len(good)) / len(ops), "ratio"),
    }
    if setup_s is not None:
        out["setup_s"] = (setup_s, "s")
    if workload == "fuzz":
        # checks per verified program at the verified programs' rate
        out["state_checks_per_s"] = (
            statistics.fmean(op.state_checks for op in good)
            * out["programs_per_s"][0] if good else 0.0, "1/s")
    if workload in ("deep", "arrays"):
        osteps = sum(op.ordinary_steps for op in good) or 1
        psteps = sum(op.pure_steps for op in good) or 1
        out["ordinary.us_per_step"] = (
            sum((op.front + op.ordinary) * op.scale for op in good) * 1e6
            / osteps, "us")
        out["pure.us_per_step"] = (
            sum(op.pure * op.scale for op in good) * 1e6 / psteps, "us")
        og = path_growth(ops, lambda op: (op.front + op.ordinary) * op.scale)
        pg = path_growth(ops, lambda op: op.pure * op.scale)
        out["ordinary.growth"] = (max(og.values(), default=0.0), "slope")
        out["pure.growth"] = (max(pg.values(), default=0.0), "slope")
        for f in sorted(og):
            out[f"ordinary.growth.{f}"] = (og[f], "slope")
            out[f"pure.growth.{f}"] = (pg[f], "slope")
    return out


def per_layer(workload: str, ops: list[Op], wall: float,
              tr: tracing.Tracer) -> tuple[dict[str, tuple[float, str]],
                                           dict[str, int]]:
    spans = tr.spans
    st = tracing.layer_stats(spans)
    get = lambda name: st.get(name, tracing.LayerStats())  # noqa: E731
    n = len(ops)
    parse, check, share = (get("parser.parse_program"),
                           get("typecheck.check_program"),
                           get("translate.to_sharing"))
    ordinary, pure = get("eval_ordinary.eval_term"), get("eval_pure.eval_pure")
    swt, inst = (get("eval_pure.state_welltyped"),
                 get("eval_pure.instrumented_eval"))
    gen = get("harness.gen_welltyped")
    kb = tr.extra.get("parser.parse_program.bytes", 0) / 1024
    out: dict[str, tuple[float, str]] = {
        "parser.parse_program.busy_s": (parse.busy, "s"),
        "parser.parse_program.kb_per_s": (
            kb / parse.busy if parse.busy else 0.0, "KB/s"),
        "typecheck.check_program.busy_s": (check.busy, "s"),
        "typecheck.check_program.calls_per_program": (check.calls / n,
                                                      "calls"),
        "translate.to_sharing.busy_s": (share.busy, "s"),
        "translate.to_sharing.calls_per_program": (share.calls / n, "calls"),
        "eval_ordinary.eval_term.busy_s": (ordinary.busy, "s"),
        "eval_ordinary.eval_term.steps": (
            ordinary.counts.get("steps", 0), "count"),
        "eval_ordinary.eval_term.us_per_step": (
            _per(ordinary.busy * 1e6, ordinary.counts.get("steps", 0)),
            "us"),
        "eval_ordinary.eval_term.cell_allocs": (
            ordinary.counts.get("cell_allocs", 0), "count"),
        "eval_ordinary.eval_term.writes": (
            ordinary.counts.get("writes", 0), "count"),
        "eval_pure.eval_pure.busy_s": (pure.busy, "s"),
        "eval_pure.eval_pure.steps": (pure.counts.get("steps", 0), "count"),
        "eval_pure.eval_pure.us_per_step": (
            _per(pure.busy * 1e6, pure.counts.get("steps", 0)), "us"),
        "eval_pure.eval_pure.array_allocs": (
            pure.counts.get("array_allocs", 0), "count"),
        "eval_pure.eval_pure.array_copies": (
            pure.counts.get("array_copies", 0), "count"),
        "eval_pure.state_welltyped.calls": (swt.calls, "count"),
        "eval_pure.state_welltyped.busy_s": (swt.busy, "s"),
        "eval_pure.state_welltyped.ms_per_check": (
            _per(swt.busy * 1e3, swt.calls), "ms"),
        "eval_pure.instrumented_eval.self_s": (inst.self_time, "s"),
        "harness.gen_welltyped.self_s": (gen.self_time, "s"),
        "harness.gen_welltyped.attempts_per_program": (
            _per(tracing.child_calls(spans, "typecheck.check_program",
                                     "harness.gen_welltyped"), gen.calls),
            "attempts"),
        "harness.bisim_run.self_s": (get("harness.bisim_run").self_time, "s"),
        "harness.fuzz.self_s": (get("harness.fuzz").self_time, "s"),
    }
    for span_name in ("eval_ordinary.eval_term", "eval_pure.eval_pure"):
        fams = path_growth(ops, lambda op: op.layers.get(span_name, 0.0))
        for f in FAMILIES:
            out[f"{span_name}.growth.{f}"] = (fams.get(f, 0.0), "slope")
    roots = [s for s in spans if s.parent < 0]
    out["trace.programs_per_s"] = (throughput(ops), "1/s")
    out["trace.self_share"] = (
        sum(s.end - s.start for s in roots) / wall, "ratio")
    counts = {
        "programs": n,
        "ordinary_steps": ordinary.counts.get("steps", 0),
        "pure_steps": pure.counts.get("steps", 0),
        "state_checks": swt.calls,
        "check_program_calls": check.calls,
        "to_sharing_calls": share.calls,
        "cell_allocs": ordinary.counts.get("cell_allocs", 0),
        "writes": ordinary.counts.get("writes", 0),
        "array_allocs": pure.counts.get("array_allocs", 0),
        "array_copies": pure.counts.get("array_copies", 0),
    }
    return out, counts


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


# ---------------------------------------------------------------------------
# Set-up time, machine description, output

def setup_times(starts: int) -> list[float]:
    """``import lqlang`` plus ``parse_prelude()``, each in a fresh
    process, scaled by the host's speed around it like the programs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    values = []
    for _ in range(starts):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        ref_ms, seconds = map(float, done.stdout.split()[-2:])
        values.append(seconds * hostspeed.NOMINAL_MS / ref_ms)
    return values


def machine() -> dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")


def run_workload(args: argparse.Namespace) -> int:
    workload, seed = args.workload, args.seed
    OUT.mkdir(parents=True, exist_ok=True)
    if not args.trace:
        # the host's speed switches between two levels for seconds at a
        # time, so half the starts come before the timed phase and half
        # after; the first start only fills the bytecode cache
        setup = setup_times(SETUP_STARTS // 2 + 1)[1:]
    lib = Library()
    tr = tracing.Tracer() if args.trace else tracing.NullTracer()
    rng = random.Random(f"perfbench:order:{workload}:{seed}")

    repro = None
    if workload == "fuzz":
        # fuzz() writes reproducers to the current directory by default
        repro = tempfile.TemporaryDirectory(dir=OUT)
        progs = fuzz_inputs()
        runner = lambda p: fuzz_one(lib, tr, p.seed, repro.name)  # noqa: E731
    elif workload == "check":
        progs = programs.check_programs(seed, CORPUS)
        runner = lambda p: check_one(lib, tr, p)  # noqa: E731
    else:
        progs = (programs.deep_programs(seed) if workload == "deep"
                 else programs.array_programs(seed))
        runner = lambda p: run_both(lib, tr, p)  # noqa: E731
        rng = None  # families run in size order

    if args.trace:
        tr.install()
    try:
        ops, wall = loop_rounds(tr, progs, runner, rng, args.seconds,
                                args.ops)
    finally:
        if args.trace:
            tr.uninstall()
        if repro is not None:
            repro.cleanup()

    setup_s = None
    if not args.trace:
        setup += setup_times(SETUP_STARTS - len(setup))
        setup_s = statistics.median(setup)
    wrong = [op for op in ops if op.error is None and not op.ok]
    failed = [op for op in ops if op.error is not None]
    e2e = end_to_end(workload, ops, setup_s)  # before the probe's RSS
    if workload == "deep" and args.ops is None:
        probe = probe_limit(lib)
        print(f"limit probe: {probe.name} ordinary: "
              f"{probe.error or ('correct' if probe.ok else 'WRONG')}")
        if probe.error is None and not probe.ok:
            wrong.append(probe)

    info = {"workload": workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "wall_s": wall, **machine()}
    print("machine: " + json.dumps(info))
    if args.trace:
        metrics, counts = per_layer(workload, ops, wall, tr)
        print_metrics("per-layer (traced run):", metrics)
        print("counts: " + json.dumps(counts, sort_keys=True))
        tr.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
        keys = metric_names("per_layer")
        metrics.update({k: v for k, v in e2e.items() if k in keys})
        for k, unit in WORKLOAD_SPECIFIC.items():
            metrics.setdefault(k, (0.0, unit))  # a layer this one bypasses
    else:
        print_metrics("end-to-end:", e2e)
        metrics, counts, keys = e2e, {}, metric_names("end_to_end")
    for op in failed[:5] + wrong[:5]:
        print(f"{'failed' if op.error else 'wrong'}: {op.name} {op.error or ''}",
              file=sys.stderr)
    (OUT / f"{workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": {k: {"value": v, "unit": u}
                                        for k, (v, u) in metrics.items()},
                    "counts": counts, "program_ms": program_ms(ops),
                    "raw_program_ms": program_ms(ops, scaled=False)},
                   indent=1))
    result = {"correct": not wrong, "attempted": len(ops),
              "failed": len(failed),
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                          for k in keys}}
    print(json.dumps(result))
    return 1 if wrong else 0


def probe_limit(lib: Library) -> Op:
    """The deep program past the recursion limit, outside the timed
    operations, ordinary semantics only (the pure evaluator's quadratic
    cost would take half a minute).  Its fuel is ample, so only the host
    recursion limit can stop it."""
    prog = programs.tri_program(programs.DEEP_LIMIT_PROBE)
    tr = tracing.NullTracer()
    return guarded(tr, prog.name,
                   lambda: run_both(lib, tr, prog, sems=("ordinary",),
                                    fuel=100 * FUEL),
                   prog.family, prog.size)


def metric_names(kind: str) -> list[str]:
    """The metric names BENCHMARK.json declares, ``end_to_end`` or
    ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


# ---------------------------------------------------------------------------
# The one command for every workload, and the determinism self-test

def child(workload: str, seed: int, seconds: float, trace: int,
          ops: Optional[int] = None, hashseed: Optional[str] = None
          ) -> tuple[int, str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for workload in WORKLOADS:
        rates = {}
        for trace in (0, 1):
            code, out = child(workload, args.seed, args.seconds, trace)
            print(f"== {workload} trace={trace} exit={code}")
            print(out, end="")
            status = status or code
            try:
                metrics = json.loads(out.splitlines()[-1])["metrics"]
            except (IndexError, ValueError, KeyError):
                metrics = {}
            rates[trace] = metrics.get(
                "programs_per_s" if trace == 0 else "trace.programs_per_s",
                {}).get("value")
        if None not in rates.values():
            print(f"tracing overhead ({workload}): untraced - traced "
                  f"programs_per_s = {rates[0] - rates[1]:.4f} 1/s "
                  f"({rates[0]:.4f} vs {rates[1]:.4f})")
    return status


SELFTEST_OPS = {"fuzz": 8, "check": 48, "deep": 9, "arrays": 9}


def selftest(args: argparse.Namespace) -> int:
    """Exact counts must not depend on the run or on PYTHONHASHSEED."""
    status = 0
    for workload in WORKLOADS:
        seen = []
        for hashseed in ("0", "0", "1"):
            code, out = child(workload, args.seed, 0, 1,
                              ops=SELFTEST_OPS[workload], hashseed=hashseed)
            counts = next((json.loads(line[len("counts: "):])
                           for line in out.splitlines()
                           if line.startswith("counts: ")), None)
            seen.append((hashseed, code, counts))
        same = all(c == seen[0][2] and code == 0 for _, code, c in seen)
        print(f"{workload}: {'same' if same else 'DIFFERENT'} "
              f"{json.dumps(seen[0][2], sort_keys=True)}")
        if not same:
            for hashseed, code, counts in seen:
                print(f"  PYTHONHASHSEED={hashseed} exit={code} {counts}")
            status = 1
    return status


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many programs instead of timing")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "lqlang" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no lqlang sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(RECURSION_LIMIT)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
