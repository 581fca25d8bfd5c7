"""Benchmark entry point for rellich-cone.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Measures set-up time in fresh
interpreters, then runs the workload in its own process (``worker.py``),
prints a table of every metric with its unit, and ends with one JSON line:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Full results, the replayable argv list and
the trace spans go to ``bench/out/``.

Exits 2 without a result when the checkout has no ``src/rellich_cone``,
and 1 when the workload process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("classify-wide", "cap-domains", "scan-numeric", "verify-all")

#: fresh interpreters timed besides the workload's own, for a median set-up
SETUP_PROBES = 6

#: a run must end within this many seconds
RUN_LIMIT = 170.0


def child_env() -> dict:
    # the package reads its config file path from this variable; the
    # benchmark pins the defaults.  Thread settings are left as they are.
    env = dict(os.environ)
    env.pop("RELLICH_CONE_CONFIG", None)
    return env


def spawn(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, WORKER, "--spawned-at", repr(time.monotonic())] + args,
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rellich-cone benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rellich_cone", "cli.py")):
        print(f"error: no rellich_cone package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)

    try:
        probes = []
        for _ in range(SETUP_PROBES):
            done = spawn(["--probe"], deadline)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            probes.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        done = spawn(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--result", result_path,
                      "--probe-setups", ",".join(repr(p) for p in probes)], deadline)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_LIMIT:g} s", file=sys.stderr)
        return 1
    if done.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(done.stderr)
        print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    e2e = result["end_to_end"]
    print(f"{args.workload} seed={args.seed} passes={result['passes']} "
          f"ops/pass={result['ops_per_pass']} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, m in e2e.items():
        print(f"  {name:<22} {m['value']:<24.6g} {m['unit']}")
    for problem in result["problems"][:10]:
        print(f"  problem: {json.dumps(problem)[:200]}")
    spec = load_spec()
    if args.trace:
        layers = result["per_layer"]
        for name, value in layers.items():
            print(f"  {name:<28} {value:.6g}")
        print(f"  coverage check: {json.dumps(result['coverage_check'])}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
