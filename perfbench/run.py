"""Benchmark for concavemaps: seeded check / scan / export workloads.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
One process, one thread, one caller: each operation starts when the previous
one has returned and been checked (a closed loop). Operations come in
rounds, one case per spec family (see specgen), and a run executes whole
rounds, starting a new one while fewer than --seconds have passed, so every
run measures the same cost mix whatever the seed.

Times are read from a HostClock (see hostclock.py), which rescales wall time
to an uncontended host, because the host's speed swings by half within
seconds; the wall-clock rate is printed alongside. The run length itself is
wall time.

--trace 0 prints the end-to-end metrics. --trace 1 runs each round untraced
and then traced, prints the per-layer metrics from the traced half, and
reports tracing overhead as traced against untraced ops/s over the same
operations. Each run writes its record, and with --trace 1 its spans, under
.perfbench_out/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Every output is checked against ground truth known by construction; an
operation that raises, exits with the wrong code, contradicts the truth or
writes a malformed report counts as failed. A sha256 digest of each round's
outputs is stored per (workload, seed, round); a later run of the same seed
whose digest differs fails, as do set-ups whose warm-up outputs differ.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import specgen  # noqa: E402
from hostclock import HostClock  # noqa: E402
from workloads import (EXPORT_ANGLES, EXPORT_ANGLES_DEFAULT,  # noqa: E402
                       GRID_ANGLES, GRID_RADII, ORACLE_ANGLES, ORACLE_RADII,
                       WORKLOADS, CheckFailed, Op)

PACKAGE = "concavemaps"
OUT_DIR = ".perfbench_out"
SETUPS = 5          # set-ups per run; setup_s is their median
PLAN_ROUNDS = 64    # rounds generated at set-up; a longer run cycles them
HARD_STOP_S = 150   # never start an operation after this, whatever --seconds

# name -> unit; printed in this order
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "samples_per_s": "sample/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "catalog.eval_jet.calls": "calls/op",
    "catalog.eval_jet.self_s": "s/op",
    "catalog.reciprocal_jet.calls": "calls/op",
    "catalog.parse_spec.self_s": "s/op",
    "catalog.self_s": "s/op",
    "jets.ops.calls": "calls/op",
    "jets.schwarzian.calls": "calls/op",
    "jets.schwarzian.self_s": "s/op",
    "jets.errors": "count/op",
    "jets.self_s": "s/op",
    "operators.point.calls": "calls/op",
    "operators.point.self_s": "s/op",
    "operators.fn.self_s": "s/op",
    "operators.excluded": "count/op",
    "operators.self_s": "s/op",
    "margins.classify.self_s": "s/op",
    "margins.scan.calls": "calls/op",
    "margins.scan.self_s": "s/op",
    "margins.margin_at.calls": "calls/op",
    "margins.samples_used": "count/op",
    "margins.samples_excluded": "count/op",
    "margins.useful_ratio": "ratio",
    "margins.evals_per_point": "ratio",
    "margins.self_s": "s/op",
    "oracle.oracle_concave.self_s": "s/op",
    "oracle.boundary_curve.calls": "calls/op",
    "oracle.boundary_curve.self_s": "s/op",
    "oracle.convexity_defect.self_s": "s/op",
    "oracle.samples": "count/op",
    "oracle.samples_excluded": "count/op",
    "oracle.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.bytes_out": "bytes/op",
    "cli.self_s": "s/op",
    "trace.ops_per_s": "op/s",
    "trace.untraced_ops_per_s": "op/s",
    "trace.slowdown": "ratio",
}


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- set-up ----------------------------------------------------------------------

def program_src(root: Path) -> Path:
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise Fatal(f"no {PACKAGE} sources under {src}")
    return src


def import_program(root: Path) -> SimpleNamespace:
    """Import the program from <root>/src afresh, dropping any earlier import."""
    src = program_src(root)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("catalog", "margins", "oracle", "cli")}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise Fatal(f"{PACKAGE} was imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


def setup(root: Path, out_dir: Path, workload_name: str, seed: int,
          clock: HostClock):
    """Imports, spec generation and warm-up: everything before the first
    measured operation. Returns the workload, the plan and the warm-up records."""
    program = import_program(root)
    workload = WORKLOADS[workload_name](program, out_dir)
    plan = specgen.rounds(seed, PLAN_ROUNDS)
    warm = [execute(op, 0, clock) for op in workload.warmup()]
    return workload, plan, warm


# -- measurement -------------------------------------------------------------------

def execute(op: Op, round_index: int, clock: HostClock) -> dict:
    """Run one operation, time only the call, then check its output.
    `ms` is wall time and `host_ms` host-clock time."""
    rec = {"round": round_index, "family": op.case.family, "kind": op.kind,
           "spec": op.case.spec, "class": op.case.cls, "samples": op.samples,
           "ok": False, "error": None, "sha256": ""}
    v0, t0 = clock.now(), time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises is a failed operation
        result, rec["error"] = None, "".join(
            traceback.format_exception_only(exc)).strip()
    rec["ms"] = (time.perf_counter() - t0) * 1e3
    rec["host_ms"] = (clock.now() - v0) * 1e3
    if rec["error"] is not None:
        return rec
    try:
        outcome = op.check(result)
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        rec["error"] = f"check: {type(exc).__name__}: {exc}"
        return rec
    rec.update(ok=True, samples_used=outcome.samples_used,
               curve_samples=outcome.curve_samples, bytes_out=outcome.bytes_out,
               sha256=hashlib.sha256(outcome.output).hexdigest())
    return rec


def run_rounds(workload, plan, seed: int, seconds: float, clock: HostClock,
               tracer=None):
    """Whole rounds, starting one while fewer than `seconds` have passed.
    With a tracer each round runs untraced and then traced, and the two
    passes must write the same bytes. Returns (untraced, traced, problems)."""
    untraced, traced, problems = [], [], []
    t0 = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t0 < seconds:
        ops = workload.ops(plan[r % len(plan)], random.Random(f"{seed}:{r}"))
        done = []
        for op in ops:
            done.append(execute(op, r, clock))
            if time.perf_counter() - t0 > HARD_STOP_S:
                break
        if len(done) < len(ops):
            for rec in done:
                rec["partial"] = True
        untraced.extend(done)
        if tracer is not None:
            tracer.install()
            try:
                for op, plain in zip(ops, done):
                    tracer.op_id = len(traced)
                    rec = execute(op, r, clock)
                    traced.append(rec)
                    if rec["ok"] and plain["ok"] and rec["sha256"] != plain["sha256"]:
                        problems.append(f"round {r} {op.kind} {op.case.spec}: "
                                        "traced output differs from untraced")
            finally:
                tracer.uninstall()
        r += 1
        if time.perf_counter() - t0 > HARD_STOP_S:
            break
    return untraced, traced, problems


def round_digests(records: list[dict]) -> dict[int, str]:
    """sha256 over each complete round's outputs, in operation order."""
    out = {}
    for rec in records:
        if rec.get("partial"):
            continue
        out.setdefault(rec["round"], hashlib.sha256()).update(rec["sha256"].encode())
    return {r: h.hexdigest() for r, h in out.items()}


def check_digests(path: Path, workload: str, seed: int,
                  digests: dict[int, str]) -> list[str]:
    """Compare round digests with those stored by earlier runs of this seed."""
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        stored = {}
    problems = []
    for r, hexdigest in digests.items():
        key = f"{workload}:{seed}:{r}"
        if stored.setdefault(key, hexdigest) != hexdigest:
            problems.append(f"round {r}: outputs differ from an earlier run "
                            f"of seed {seed}")
    path.write_text(json.dumps(stored, sort_keys=True, indent=0) + "\n",
                    encoding="utf-8")
    return problems


# -- metrics ------------------------------------------------------------------------

def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def rate(records: list[dict], key: str = "host_ms") -> float:
    busy = sum(rec[key] for rec in records) / 1e3
    return sum(rec["ok"] for rec in records) / busy


def end_to_end(records: list[dict], setup_times: list[float], tail_pct: int) -> dict:
    """Times are host-clock times; peak RSS is as measured."""
    ok = [rec for rec in records if rec["ok"]]
    times = [rec["host_ms"] for rec in records]
    busy = sum(times) / 1e3
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ok) / busy,
        "samples_per_s": sum(rec["samples"] for rec in ok) / busy,
        "op_ms.p50": statistics.median(times),
        "op_ms.tail": percentile(times, tail_pct),
        "ok_frac": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Counts per traced operation; self times per traced operation, scaled
    from wall to host-clock time by the traced pass's overall ratio."""
    n = len(traced)
    stat = tracer.stat
    scale = (sum(rec["host_ms"] for rec in traced)
             / sum(rec["ms"] for rec in traced))

    def per_op(x: float) -> float:
        return x / n

    def time_per_op(x: float) -> float:
        return x * scale / n

    used, excluded = tracer.samples_used, tracer.samples_excluded
    m = {
        "catalog.eval_jet.calls": per_op(stat("catalog.eval_jet")[0]),
        "catalog.eval_jet.self_s": time_per_op(stat("catalog.eval_jet")[2]),
        "catalog.reciprocal_jet.calls": per_op(stat("catalog.reciprocal_jet")[0]),
        "catalog.parse_spec.self_s": time_per_op(stat("catalog.parse_spec")[2]),
        "jets.ops.calls": per_op(tracer.jet_ops[0]),
        "jets.schwarzian.calls": per_op(stat("jets.schwarzian")[0]),
        "jets.schwarzian.self_s": time_per_op(stat("jets.schwarzian")[2]),
        "jets.errors": per_op(tracer.jet_errors[0]),
        "operators.point.calls": per_op(stat("operators.point")[0]),
        "operators.point.self_s": time_per_op(stat("operators.point")[2]),
        "operators.fn.self_s": time_per_op(tracer.self_s("operators.",
                                                    exclude=("operators.point",))),
        "operators.excluded": per_op(tracer.excluded_by_layer["operators"]),
        "margins.classify.self_s": time_per_op(stat("margins.classify")[2]),
        "margins.scan.calls": per_op(stat("margins.scan")[0]),
        "margins.scan.self_s": time_per_op(stat("margins.scan")[2]),
        "margins.margin_at.calls": per_op(stat("margins.margin_at")[0]),
        "margins.samples_used": per_op(used),
        "margins.samples_excluded": per_op(excluded),
        "margins.useful_ratio": used / (used + excluded) if used + excluded else 0.0,
        "margins.evals_per_point": (tracer.evals_under_classify
                                    / tracer.classify_points
                                    if tracer.classify_points else 0.0),
        "oracle.oracle_concave.self_s": time_per_op(stat("oracle.oracle_concave")[2]),
        "oracle.boundary_curve.calls": per_op(stat("oracle.boundary_curve")[0]),
        "oracle.boundary_curve.self_s": time_per_op(stat("oracle.boundary_curve")[2]),
        "oracle.convexity_defect.self_s": time_per_op(stat("oracle.convexity_defect")[2]),
        "oracle.samples": per_op(tracer.curve_samples),
        "oracle.samples_excluded": per_op(tracer.curve_excluded),
        "cli.main.self_s": time_per_op(stat("cli.main")[2]),
        "cli.bytes_out": per_op(sum(rec.get("bytes_out", 0) for rec in traced)),
    }
    for layer in ("catalog", "jets", "operators", "margins", "oracle", "cli"):
        m[f"{layer}.self_s"] = time_per_op(tracer.self_s(layer + "."))
    m["trace.ops_per_s"] = rate(traced)
    m["trace.untraced_ops_per_s"] = rate(untraced)
    m["trace.slowdown"] = m["trace.untraced_ops_per_s"] / m["trace.ops_per_s"]
    return m


def reconcile(tracer, traced: list[dict], workload: str) -> list[str]:
    """The tracer's counts must match what the program's reports say."""
    problems = []
    reported = sum(rec.get("samples_used", 0) for rec in traced)
    if tracer.samples_used != reported:
        problems.append(f"margins.samples_used: traced {tracer.samples_used}, "
                        f"reports say {reported}")
    if workload == "export":  # the only workload whose curves are reported
        reported = sum(rec.get("curve_samples", 0) for rec in traced)
        if tracer.curve_samples != reported:
            problems.append(f"oracle.samples: traced {tracer.curve_samples}, "
                            f"reports say {reported}")
    return problems


# -- environment -----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / PACKAGE).rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "GFT_GRID_PRESET": os.environ.get("GFT_GRID_PRESET"),
        "grid": f"{GRID_RADII}x{GRID_ANGLES}",
        "oracle": {"radii": list(ORACLE_RADII), "angles": ORACLE_ANGLES},
        "export_angles": {"default": EXPORT_ANGLES_DEFAULT, **EXPORT_ANGLES},
        "tail_percentile": workload.tail_pct,
    }


# -- main ------------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    program_src(root)
    # default_grid() reads this; pin it so the stock grid is the one measured
    os.environ["GFT_GRID_PRESET"] = "default"
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    clock = HostClock(origin=PROCESS_T0)
    clock.start()
    try:
        return measure(args, root, out_dir, clock)
    finally:
        clock.stop()


def measure(args, root: Path, out_dir: Path, clock: HostClock) -> int:
    # the first set-up counts from process start
    setup_wall, setup_times, warm_digests, problems = [], [], set(), []
    t0, v0 = PROCESS_T0, 0.0
    for _ in range(SETUPS):
        workload, plan, warm = setup(root, out_dir, args.workload, args.seed, clock)
        setup_wall.append(time.perf_counter() - t0)
        setup_times.append(clock.now() - v0)
        warm_digests.add(tuple(rec["sha256"] for rec in warm))
        problems += [f"warm-up {rec['kind']} {rec['spec']}: {rec['error']}"
                     for rec in warm if not rec["ok"]]
        t0, v0 = time.perf_counter(), clock.now()
    if len(warm_digests) != 1:
        problems.append("warm-up outputs differ between set-ups")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(PACKAGE)
    untraced, traced, trace_problems = run_rounds(
        workload, plan, args.seed, args.seconds, clock, tracer)
    problems += trace_problems
    digests = round_digests(untraced)
    problems += check_digests(out_dir / "digests.json", args.workload, args.seed,
                              digests)
    outputs_sha256 = hashlib.sha256("".join(digests.values()).encode()).hexdigest()

    records = untraced + traced
    failed = [rec for rec in records if not rec["ok"]]
    if args.trace:
        problems += reconcile(tracer, traced, args.workload)
        metrics, units = per_layer(tracer, traced, untraced), PER_LAYER
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics, units = end_to_end(untraced, setup_times, workload.tail_pct), END_TO_END

    env = environment(root, args, workload)
    tail_beyond = len(untraced) * (100 - workload.tail_pct) / 100.0
    with open(out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "outputs_sha256": outputs_sha256,
                   "setup_s": setup_times,
                   "setup_wall_s": setup_wall,
                   "metrics": metrics, "problems": problems,
                   "records": records}, fh, indent=1)
        fh.write("\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"operations: {len(records)} attempted, {len(failed)} failed, "
          f"{len(untraced)} untraced, {len(traced)} traced; "
          f"op_ms.tail is p{workload.tail_pct} with {tail_beyond:g} operations beyond it")
    print(f"outputs sha256: {outputs_sha256}")
    print(f"wall clock: {rate(untraced, 'ms'):.6g} op/s untraced; the times "
          "below are host-clock times")
    for rec in failed:
        print(f"FAILED {rec['kind']} {rec['spec']} {rec['class']}: {rec['error']}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
