"""Run one workload of the eqpush benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify-classical --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each pass runs in a fresh interpreter
(worker.py), so module caches start cold as they do for a CLI user.  Passes
repeat while another fits in --seconds, at least one; times are corrected
for the host's speed (hostspeed.py) and wall_s is the median pass.  --trace 0
prints the end-to-end metrics; --trace 1 makes one untraced and one traced pass and prints the
per-layer metrics.  The last line of stdout is the JSON result; the exit code
is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Printed beside the end-to-end metrics of BENCHMARK.json but not listed
# there: their spread across runs reached the largest bound it allows (0.25).
LATENCY = [("item_p50_ms", "ms"), ("item_p90_ms", "ms")]
WORKLOADS = ("verify-classical", "residue-variants", "g2-artifacts", "cli-requests")
SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 170


def worker(workload: str, seed: int, trace: bool = False, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int, coefficient_type: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "coefficient_type": coefficient_type,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "eqpush", "__init__.py")):
        print(f"error: no eqpush sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    # Bytecode is compiled once here, not inside the first pass's set-up.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    def setup_only(count):
        return [worker(args.workload, args.seed, setup_only=True)["setup_s"]
                for _ in range(count if not args.trace else 0)]

    # Set-up takes a fraction of a second, so its samples are spread before
    # and after the passes to average over CPU speed changes on a shared host.
    setups = setup_only(SETUP_SAMPLES // 2)
    # A traced run needs one untraced pass only, for trace.overhead_frac.
    passes, durations = [], []
    start = time.monotonic()
    while not passes or (not args.trace and
                         time.monotonic() - start + statistics.median(durations) <= args.seconds):
        began = time.monotonic()
        passes.append(worker(args.workload, args.seed))
        durations.append(time.monotonic() - began)
    setups += [p["setup_s"] for p in passes]
    setups += setup_only(SETUP_SAMPLES - len(setups))
    traced = worker(args.workload, args.seed, trace=True) if args.trace else None

    runs = passes + ([traced] if traced else [])
    latencies = [ms for p in passes for ms in p["latencies_ms"]]
    wall_s = statistics.median(p["wall_s"] for p in passes)
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    wrong = sum(p["wrong"] for p in runs)
    env = environment(args.seed, passes[0]["coefficient_type"])

    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "item_p50_ms": percentile(latencies, 50),
        "item_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    units = dict(end_to_end)
    print(f"workload {args.workload}: {len(passes)} pass(es), {len(latencies)} items, "
          f"{len(setups)} set-ups")
    print("env " + json.dumps(env))
    for name, unit in end_to_end + LATENCY:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"raw_wall_s {statistics.median(p['raw_wall_s'] for p in passes):.6g} s "
          f"(uncorrected; host slowdown {statistics.median(p['slowdown'] for p in passes):.3g})")
    print(f"error_rate {failed / attempted:.6g} failed/attempted ({failed}/{attempted}, "
          f"{wrong} wrong outputs)")
    for problem in sorted({p for run in runs for p in run["problems"]}):
        print(f"  failed item {problem}")

    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["wall_s"] / wall_s - 1.0
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        reported = {name: layers.get(name, 0) for name in units}
        for name, unit in units.items():
            print(f"{name} {reported[name]:.6g} {unit}")
    else:
        reported = metrics

    record = {"workload": args.workload, "env": env, "passes": len(passes),
              "end_to_end": metrics, "layers": reported if traced else None,
              "attempted": attempted, "failed": failed, "wrong": wrong,
              "problems": [p for run in runs for p in run["problems"]]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
