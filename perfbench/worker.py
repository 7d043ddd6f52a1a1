"""One pass of one workload in a fresh interpreter, so module caches start cold.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  `--t0` is
the parent's time.monotonic() just before the start, so set-up time includes
interpreter start and imports.  Prints one JSON line with the pass's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import hostspeed
import tracing
import workloads as wl
from eqpush.algebra import rational

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
LAUNCHER = os.path.join(HERE, "cli_launcher.py")


def build(workload: str, seed: int, tracer):
    """(items, item function) of a workload; the set-up counted in setup_s."""
    if workload in ("verify-classical", "residue-variants"):
        cases, trials = ((wl.CLASSICAL_CASES, wl.VERIFY_TRIALS) if workload == "verify-classical"
                         else (wl.CRITERION5_CASES, wl.RESIDUE_TRIALS))
        with tracer.span("bench.generate") if tracer else nullcontext():
            items = wl.campaign_inputs(cases, seed, trials)
        wl.prepare_spaces(items)
        if workload == "verify-classical":
            return items, wl.verify_trial
        expected = wl.load_digests(seed)
        return [(i, (space, f, expected.get(i))) for i, (space, f) in items], \
            wl.residue_variants_item
    if workload == "g2-artifacts":
        return wl.g2_inputs(), wl.g2_step
    env = wl.cli_env()
    requests = wl.cli_requests(seed)
    # One untimed request fills the OS file cache before timing.
    wl.run_request(wl.Request(("--space", "gr:1,2", "--f", "1"), "ok", "prime"), env)
    if tracer is None:
        return [(f"req{i}", (r, env)) for i, r in enumerate(requests)], wl.run_request
    path = os.path.join(RESULTS, f"request-spans-{os.getpid()}.json")

    def traced_request(item_id, req):
        try:
            wl.run_request(req, env, launcher=[LAUNCHER, path])
        finally:
            if os.path.exists(path):
                with open(path) as fh:
                    tracer.absorb(json.load(fh), item_id)
                os.remove(path)

    return [(f"req{i}", (f"req{i}", r)) for i, r in enumerate(requests)], traced_request


def probed(fn, probe):
    """fn followed by one speed probe.  The probe falls inside the item's
    time window, where SpeedProbe.corrected takes it as the item's speed and
    leaves its own time out."""

    def item(*args):
        try:
            fn(*args)
        finally:
            probe.sample()

    return item


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(RESULTS, exist_ok=True)
    probe = hostspeed.SpeedProbe()
    # cli-requests does its work in child processes; a probe timer here would
    # run beside them, so there each request ends with one probe instead.
    timer = args.workload != "cli-requests"
    if timer:
        probe.start_timer()
    tracer = tracing.Tracer().install() if args.trace else None
    items, fn = build(args.workload, args.seed, tracer)
    setup_s = time.monotonic() - args.t0
    probe.sample(3)
    setup_s /= probe.slowdown()
    if args.setup_only:
        probe.stop_timer()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not timer:
        # The requests inherit this CPU, so the probe reads the CPU they ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        fn = probed(fn, probe)

    tally = wl.Tally()
    start = time.perf_counter()
    wl.run_items(items, fn, tally, tracer)
    raw_wall_s = time.perf_counter() - start
    probe.stop_timer()
    latencies_ms = [probe.corrected(*window) * 1000.0 for window in tally.windows]

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-requests" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s, "wall_s": sum(latencies_ms) / 1000.0, "latencies_ms": latencies_ms,
        "raw_wall_s": raw_wall_s, "slowdown": probe.slowdown(),
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "problems": tally.problems,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "coefficient_type": f"{type(rational(1)).__module__}.{type(rational(1)).__qualname__}",
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
        tracer.dump(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
