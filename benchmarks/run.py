#!/usr/bin/env python3
"""hypervis benchmark: time to verdict on three verification workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-d2 --seed 42 --seconds 45 --trace 0

--trace 0 repeats the workload's call list, tracing off, for up to --seconds
and reports the end-to-end metrics. --trace 1 runs the list once untraced and
once traced, checks that tracing changed no output, and reports the
per-layer metrics. Metric names and units come from BENCHMARK.json. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the full result (environment, every check, raw timings,
and for traced runs the spans) is written under benchmarks/results/.
--smoke shrinks every workload to a few seconds. See benchmarks/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the set-up
# probes inherit it. On 2 cores the timings then measure the program, not
# the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("verify-d2", "sweep-d3", "sweep-highdim")
SETUP_PROBES = 3
MAX_REPEATS = 4
# The reference kernel mixes the two kinds of numpy work the program does:
# many calls on 256 values (bound by call overhead, like the samplers) and
# transcendentals on a 200 x 256 array (like the hit kernels). It takes about
# REF_NOMINAL_S on a 2-vCPU Intel Xeon VM when that machine runs at full speed.
REF_SMALL = np.linspace(0.1, 3.0, 256)
REF_LARGE = np.linspace(0.1, 3.0, 200 * 256).reshape(200, 256)
REF_SMALL_ITERS = 7500
REF_LARGE_ITERS = 60
REF_NOMINAL_S = 0.075
# One reference sample per this many seconds of timed calls.
REF_EVERY_S = 2.0


def require_program() -> None:
    if not (SRC / "hypervis" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'hypervis'} not found; run from the root of a full checkout")


def load_program():
    """Import hypervis from this checkout's src/ and the modules that drive it."""
    require_program()
    sys.path.insert(0, str(SRC))
    import hypervis

    if Path(hypervis.__file__).resolve().parent != (SRC / "hypervis").resolve():
        raise SystemExit(f"error: imported hypervis from {hypervis.__file__}, not from {SRC}")
    import workloads

    return workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42, help="master seed; every call's seed derives from it")
    p.add_argument("--seconds", type=float, default=45.0, help="measuring time of a --trace 0 run, at most")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny replication counts, for the smoke test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def reference_s() -> float:
    """Seconds of a fixed numpy kernel that tracks the machine's current speed."""
    t0 = perf_counter()
    for _ in range(REF_SMALL_ITERS):
        y = np.sinh(REF_SMALL)
        float(np.arccosh(1.0 + y * y).sum())
    for _ in range(REF_LARGE_ITERS):
        y = np.sinh(REF_LARGE)
        float(np.log(np.arccosh(1.0 + y * y)).sum())
    return perf_counter() - t0


def at_reference_speed(seconds: float, refs: list[float]) -> float:
    """Seconds rescaled to a machine on which the reference kernel takes REF_NOMINAL_S,
    the machine's speed during the run being the median of its reference samples."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)


def probe_setup_s(args) -> float:
    """Seconds from spawning an interpreter until it has imported hypervis and built the configs."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or ready.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited with {code}")
    return elapsed


def run_call(call, tracer=None):
    """(seconds, output, error text) of one call; an exception is reported, not raised."""
    t0 = perf_counter()
    try:
        out = call.run() if tracer is None or call.span is None else tracer.call(call.span, call.run)
        err = None
    except Exception as exc:  # the workload goes on; the failure is counted
        out, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, err


def run_pass(workload, problems: list[str], tracer=None) -> tuple[float, dict]:
    """One pass over the call list: (seconds, outputs by label)."""
    records = {}
    t0 = perf_counter()
    for call in workload.calls:
        _, out, err = run_call(call, tracer)
        if err is None:
            records[call.label] = out
        else:
            problems.append(f"{call.label} raised {err}")
    return perf_counter() - t0, records


def timed_run(workload, seconds: float, problems: list[str]) -> tuple[dict, dict, list]:
    """Pass 0, then rounds of repeats of every call that still fits in the time left.

    Repeats use the same seeds, so they do identical work and must return
    identical records. The reference kernel runs before the first call and
    after every call longer than itself, once per REF_EVERY_S of the call.
    Returns the records, each call's seconds, and the reference seconds.
    """
    from workloads import comparable

    refs = [reference_s()]
    samples: dict[str, list[float]] = {call.label: [] for call in workload.calls}

    def timed(call):
        dt, out, err = run_call(call)
        samples[call.label].append(dt)
        if dt > REF_NOMINAL_S:
            refs.extend(reference_s() for _ in range(max(1, round(dt / REF_EVERY_S))))
        return out, err

    t_start = perf_counter()
    records = {}
    for call in workload.calls:
        out, err = timed(call)
        if err is None:
            records[call.label] = out
        else:
            problems.append(f"{call.label} raised {err}")
    # Longest calls first: they carry most of run_s and fit least often.
    by_length = sorted(workload.calls, key=lambda call: -samples[call.label][0])
    while True:
        ran = False
        for call in by_length:
            done = samples[call.label]
            if call.label not in records or len(done) >= MAX_REPEATS:
                continue
            if perf_counter() - t_start + done[0] > seconds:
                continue
            out, err = timed(call)
            ran = True
            if err is not None or comparable(out) != comparable(records[call.label]):
                problems.append(f"{call.label}: repeat {len(done) - 1} did not reproduce pass 0: {err or 'record differs'}")
        if not ran:
            break
    return records, samples, refs


def traced_run(workload, problems: list[str]):
    """One untraced and one traced pass with the same seeds: (records, metrics, detail, tracer)."""
    import tracer as tracing
    from workloads import comparable

    untraced_s, records = run_pass(workload, problems)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced_s, traced_records = run_pass(workload, problems, tr)
    finally:
        tr.uninstall()
    for label, rec in records.items():
        if label in traced_records and comparable(traced_records[label]) != comparable(rec):
            problems.append(f"{label}: traced record differs from the untraced one")
    table = tracing.SpanTable(tr)
    metrics = tracing.layer_metrics(table, tr.intersect_pairs)
    metrics["tracing.run_s"] = traced_s
    metrics["tracing.overhead_s"] = traced_s - untraced_s
    detail = {
        "untraced_run_s": untraced_s,
        "shares": tracing.shares(table, traced_s),
        "self_s_by_layer": table.self_by_layer(),
        "spans": len(table.duration),
    }
    return records, metrics, detail, tr


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": commit,
    }


def select(metrics: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        load_program().WORKLOADS[args.workload](args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    require_program()
    specs = metric_specs()
    setup = [probe_setup_s(args) for _ in range(0 if args.trace else SETUP_PROBES)]
    workloads = load_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)

    problems: list[str] = []
    if args.trace:
        records, raw, detail, tr = traced_run(workload, problems)
        metrics = select(raw, specs["per_layer"])
        times = {}
    else:
        records, times, refs = timed_run(workload, args.seconds, problems)
        wall_run_s = sum(statistics.median(v) for v in times.values())
        raw = {
            "run_s": at_reference_speed(wall_run_s, refs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = select(raw, specs["end_to_end"])
        detail = {"wall_run_s": wall_run_s, "reference_s": refs, "setup_probes_s": setup}
        tr = None

    checks = [call.check(records[call.label]) for call in workload.calls if call.label in records]
    checks += [workloads.Check(c.label, False, ("call raised",)) for c in workload.calls if c.label not in records]
    checks += workload.pass_checks(records)
    failed = [c for c in checks if not c.passed or c.problems]
    problems += [f"{c.name}: {p}" for c in checks for p in c.problems]
    problems += [f"{c.name}: seed-independent check failed" for c in checks if c.exact and not c.passed]

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if tr is not None:
        np.savez_compressed(f"{stem}-spans.npz", layers=np.array(tr.layers), **tr.arrays())
    full = {
        "args": vars(args),
        "environment": environment(),
        "metrics": metrics,
        "checks": [{"name": c.name, "passed": c.passed, "problems": list(c.problems), "exact": c.exact}
                   for c in checks],
        "problems": problems,
        "call_seconds": times,
        "detail": detail,
    }
    Path(f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")

    for c in checks:
        print(f"[{'PASS' if c.passed and not c.problems else 'FAIL'}] {c.name}")
    for p in problems:
        print(f"problem: {p}")
    print(f"full result: {stem.relative_to(ROOT)}.json")
    print(json.dumps({"correct": not problems, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
