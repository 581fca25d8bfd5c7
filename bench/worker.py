"""One workload in one process: drive the CLI in-process, check, measure.

Started by ``run.py`` with the monotonic time at which it spawned this
interpreter; the first thing done here is importing ``rellich_cone.cli``
from the checkout's ``src``, and the time at which that import finishes,
minus the spawn time, is this process's set-up time.  With ``--probe`` the
process stops there.

The driver is a single caller in a closed loop: it calls
``rellich_cone.cli.main(argv)`` for one op at a time, capturing stdout,
and passes over the op list until the next pass would overrun
``--seconds``.  Oracles judge the first pass; later passes must repeat its
stdout byte for byte.  With ``--trace 1`` a second series of passes runs
with spans installed (see ``spans.py``) and yields the per-layer figures.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rellich_cone.cli  # noqa: E402  (timed: this import is the set-up)

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

OUT = os.path.join(ROOT, "bench", "out")

#: the traced run's summed self time must lie within this share of its wall
COVERAGE_TOL = 0.10

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "PYTHON_CPU_COUNT")


class _Lines(io.StringIO):
    """stdout sink that timestamps every completed line (scan rows stream)."""

    def __init__(self):
        super().__init__()
        self.line_times = []

    def write(self, text):
        n = super().write(text)
        if "\n" in text:
            now = time.perf_counter()
            self.line_times.extend([now] * text.count("\n"))
        return n


def run_op(main, argv):
    """One invocation: (exit code, stdout, stderr, start, end, line times)."""
    out, err = _Lines(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op, not a benchmark failure
        code = -1
        err.write(traceback.format_exc())
    end = time.perf_counter()
    return code, out.getvalue(), err.getvalue(), start, end, out.line_times


def op_latencies(op, start, end, line_times):
    """Latency of each benchmark op in one invocation.

    An op's latency runs from the start of its invocation until its output
    is complete: for a scan row, until the row is printed (rows stream,
    computed ahead by the thread pool); otherwise until the call returns.
    """
    if op.kind != "scan":
        return [end - start]
    rows = line_times[1:]  # after the header
    return [t - start for t in rows] or [end - start]


def run_passes(plan, main, seconds, tracer=None, max_passes=None):
    """Whole passes over the op list until the next one would overrun.

    At least ``plan.min_passes`` passes run, at most ``max_passes``.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        results = []
        for i, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op = i
                results.append(run_op(
                    lambda argv: tracer.call("cli", main, (argv,), {}), op.argv))
            else:
                results.append(run_op(main, op.argv))
        wall = time.perf_counter() - t0
        passes.append({"wall": wall, "results": results,
                       "spans": tracer.spans[first_span:] if tracer else []})
        elapsed = time.perf_counter() - begin
        if max_passes and len(passes) >= max_passes:
            return passes
        if len(passes) >= plan.min_passes and elapsed + wall > seconds:
            return passes


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


class Judge:
    """Expected answers of one plan, prepared before anything is timed."""

    def __init__(self, plan, main):
        self.lam_min = {}
        self.reference = {}
        self.explicit = None
        for text in plan.files.values():
            self.explicit = [float(line) for line in text.splitlines()
                             if line.strip() and not line.startswith("#")]
        for i, op in enumerate(plan.ops):
            if op.kind in ("cap-spectrum", "cap-constant"):
                key = (op.n, op.theta0)
                if key not in self.lam_min:
                    self.lam_min[key] = oracles.cap_lambda_min(op.n, op.theta0)
            elif op.kind == "scan":
                argv = [a for a in op.argv if a != "--with-numeric"]
                code, stdout, *_ = run_op(main, argv)
                self.reference[i] = stdout if code == 0 else ""

    def check(self, i, op, stdout, code):
        if op.kind == "verify":
            return oracles.check_verify(stdout, code)
        if op.kind == "scan":
            return oracles.check_scan(stdout, self.reference[i], op.n)
        if op.kind == "cap-spectrum":
            values = oracles.parse_spectrum(stdout, op.fmt)
            return oracles.check_cap_spectrum(values, op.count, self.lam_min[op.n, op.theta0])
        report = oracles.parse_report(stdout, op.fmt)
        alpha = Fraction(float(op.alpha))
        if op.kind == "cap-constant":
            return oracles.check_cap_constant(report, op.n, alpha, self.lam_min[op.n, op.theta0])
        if op.kind == "sphere":
            return oracles.check_report(report, oracles.sphere_expected(op.n, alpha), exact=True)
        if op.kind == "arc":
            return oracles.check_report(report, oracles.arc_expected(alpha, op.length), exact=False)
        return oracles.check_report(report, oracles.explicit_expected(op.n, alpha, self.explicit),
                                    exact=False)


def judge_passes(plan, judge, passes):
    """Failures, mismatches and the largest oracle deviation, in op units."""
    first = passes[0]["results"]
    failed = mismatched = 0
    err_max = 0.0
    problems = []
    for i, (op, (code, stdout, stderr, *_)) in enumerate(zip(plan.ops, first)):
        if code != 0:
            failed += op.rows
            problems.append({"op": i, "failed": code, "stderr": stderr.strip()[-300:]})
            continue
        try:
            found, err = judge.check(i, op, stdout, code)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found, err = [f"unparseable output: {exc!r}"], None
        if err is not None:
            err_max = max(err_max, err)
        if found:
            mismatched += op.rows
            problems.append({"op": i, "mismatch": found[:5]})
    repeats = [i for p in passes[1:] for i, (a, b) in enumerate(zip(first, p["results"]))
               if a[:2] != b[:2]]
    for i in sorted(set(repeats)):
        problems.append({"op": i, "mismatch": ["stdout or exit code differs between passes"]})
    return failed, mismatched, err_max, problems, bool(repeats)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); with ten samples or fewer there is
    no such percentile and the maximum is reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(plan, passes, setup, failed, mismatched, err_max):
    per_pass = sum(op.rows for op in plan.ops)
    attempted = per_pass * len(passes)
    latencies = [lat for p in passes
                 for op, (_, _, _, start, end, lines) in zip(plan.ops, p["results"])
                 for lat in op_latencies(op, start, end, lines)]
    wall = statistics.median(p["wall"] for p in passes)
    tail_s, tail_pct, samples = tail(latencies)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": ((per_pass - failed) / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_tail_samples": (samples, "count"),
        "fail_ratio": (failed / per_pass, "ratio"),
        "mismatch_ratio": (mismatched / per_pass, "ratio"),
        "oracle_err_max": (err_max, "ratio" if plan.workload != "scan-numeric" else "abs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, attempted


def per_layer(traced, untraced_wall):
    """Median per-layer figures over traced passes, and the coverage check.

    Summed self time counts pool-thread busy time in parallel; less the
    part counted twice (``trace.concurrent_s``) it must match the wall.
    """
    metrics = [spans.layer_metrics(p["spans"], p["wall"]) for p in traced]
    merged = {k: statistics.median(m[k] for m in metrics) for k in metrics[0]}
    merged["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - untraced_wall
    adjusted = statistics.median(m["trace.coverage"] - m["trace.concurrent_s"] / p["wall"]
                                 for m, p in zip(metrics, traced))
    return merged, {"adjusted_coverage": adjusted, "ok": abs(adjusted - 1.0) <= COVERAGE_TOL}


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k) for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
    }


def package_modules():
    import importlib

    names = ("cli", "report", "params", "spectra", "modes", "cylinder", "xspace", "verify")
    return {name: importlib.import_module(f"rellich_cone.{name}") for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--probe-setups", default="",
                        help="comma-separated set-up times of the probe processes")
    args = parser.parse_args(argv)
    setup = READY - args.spawned_at
    if not os.path.abspath(rellich_cone.cli.__file__).startswith(SRC + os.sep):
        print(f"rellich_cone imported from {rellich_cone.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    plan = make_plan(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    for path, text in plan.files.items():
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as handle:
            handle.write(text)
    stem = os.path.join(OUT, f"{plan.workload}-seed{plan.seed}")
    with open(stem + ".argv.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": plan.workload, "seed": plan.seed,
                   "warmup": [list(a) for a in plan.warmup],
                   "ops": [list(op.argv) for op in plan.ops]}, handle, indent=1)

    main_fn = rellich_cone.cli.main
    judge = Judge(plan, main_fn)
    for argv in plan.warmup:
        run_op(main_fn, argv)
    passes = run_passes(plan, main_fn, args.seconds)
    failed, mismatched, err_max, problems, unsteady = judge_passes(plan, judge, passes)
    setups = [float(x) for x in args.probe_setups.split(",") if x] + [setup]
    e2e, attempted = end_to_end(plan, passes, setups, failed, mismatched, err_max)
    result = {
        "workload": plan.workload, "seed": plan.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "ops_per_pass": len(plan.ops),
        "attempted": attempted, "failed": failed * len(passes),
        "correct": mismatched == 0 and not unsteady,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "setup_samples_s": setups,
        "pass_walls_s": [p["wall"] for p in passes],
        "problems": problems[:20],
        "argv_file": os.path.relpath(stem + ".argv.json", ROOT),
        "environment": environment(),
    }

    if args.trace:
        tracer = spans.Tracer()
        undo = spans.install(tracer, package_modules())
        try:
            traced = run_passes(plan, main_fn, args.seconds, tracer, max_passes=len(passes))
        finally:
            spans.uninstall(undo)
        layers, coverage = per_layer(traced, e2e["wall_s"][0])
        same = all(a[:2] == b[:2] for p in traced for a, b in zip(passes[0]["results"], p["results"]))
        result["correct"] = result["correct"] and same
        result["per_layer"] = layers
        result["coverage_check"] = dict(coverage, stdout_unchanged_by_tracing=same)
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for s in tracer.spans:
                handle.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                         "end": s.end, "parent": s.parent, "op": s.op,
                                         "thread": s.thread, "error": s.error,
                                         "attrs": s.attrs}) + "\n")
        result["spans_file"] = os.path.relpath(stem + ".spans.jsonl", ROOT)

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
