#!/usr/bin/env python3
"""Repository benchmark: builds the runtime from source, runs one workload
for a fixed time, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  It builds perfbench/ (which compiles
../src) into .bench_build/perfbench, then starts perfbench_driver once per
instance (a fresh process each time, so every instance pays its own set-up
and reports its own peak memory) until --seconds have passed, and
aggregates the instances: best-of-N run time, median set-up time and
peak memory.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything above it is a human-readable report.  README.md documents the
workloads and every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")

WORKLOADS = ["kneighbor-16k", "namd-apoa1", "smp-agg-flood", "nqueens-mpi"]
# The app workloads build their machine inside the app call.
APP_WORKLOADS = {"namd-apoa1", "nqueens-mpi"}

# (name, unit, better, bound) -- mirrored in BENCHMARK.json; --self-test
# checks that the two agree.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("virt_makespan_us", "us", "lower", 0.25),
    ("virt_step_ms", "ms", "lower", 0.25),
    ("virt_lat_p50_us", "us", "lower", 0.25),
    ("virt_lat_p99_us", "us", "lower", 0.25),
]

SPAN_STAGES = ["submit", "agg_enqueue", "agg_flush", "gov_defer", "gov_admit",
               "transport_post", "rx_arrive", "cq_complete", "deliver",
               "total"]

# (name, unit, better)
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("lrts.submit_host_ns", "ns", "lower"),
    ("lrts.advance_host_ns", "ns", "lower"),
    ("lrts.alloc_host_ns", "ns", "lower"),
    ("lrts.free_host_ns", "ns", "lower"),
    ("lrts.advance_calls_per_msg", "count", "lower"),
    ("lrts.host_share", "fraction", "lower"),
    ("lrts.outside_host_ns_per_msg", "ns", "lower"),
    ("converse.sched_steps_per_msg", "count", "lower"),
    ("converse.handler_host_ns", "ns", "lower"),
    ("ugni.smsg_sends", "count", "lower"),
    ("ugni.rendezvous_gets", "count", "lower"),
    ("ugni.credit_stalls", "count", "lower"),
    ("ugni.registrations", "count", "lower"),
    ("ugni.pxshm_msgs", "count", "higher"),
    ("ugni.mailbox_bytes_per_pe", "B", "lower"),
    ("cq.max_depth", "count", "lower"),
    ("mempool.allocs", "count", "lower"),
    ("mempool.freelist_hit_ratio", "fraction", "higher"),
    ("mempool.expansions", "count", "lower"),
    ("mempool.slab_bytes_per_pe", "B", "lower"),
    ("net.transfers", "count", "lower"),
    ("net.link_waits", "count", "lower"),
    ("net.link_wait_ns_per_transfer", "ns", "lower"),
    ("net.bytes_bte", "B", "lower"),
    ("net.bytes_fma", "B", "lower"),
    ("net.bytes_smsg", "B", "lower"),
    ("agg.batched", "count", "higher"),
    ("agg.bypass", "count", "lower"),
    ("agg.items_per_flush", "count", "higher"),
    ("agg.flush_timeout_share", "fraction", "lower"),
    ("smp.comm_thread_sends", "count", "lower"),
    ("smp.comm_thread_busy_defers", "count", "lower"),
    ("smp.intra_node_ptr_msgs", "count", "higher"),
    ("mpi.sends_e0", "count", "lower"),
    ("mpi.sends_rndv", "count", "lower"),
    ("mpi.unexpected", "count", "lower"),
    ("mpi.udreg_misses", "count", "lower"),
    ("charm.qd_waves", "count", "lower"),
    ("charm.lb_migrations", "count", "lower"),
    ("charm.lb_max_load_ratio", "fraction", "lower"),
    ("apps.nq_tasks", "count", "lower"),
    ("apps.round_drift", "ratio", "lower"),
] + [
    (f"span.{s}.{q}", "ns" if q != "count" else "count",
     "lower" if q != "count" else "higher")
    for s in SPAN_STAGES for q in ("p50_ns", "p99_ns", "count")
] + [
    ("trace.overhead_frac", "fraction", "lower"),
]

SETUP_SAMPLES = 5         # extra set-up-only instances per trace-0 run
INSTANCE_TIMEOUT_S = 170  # a single driver instance


class BenchError(Exception):
    pass


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "converse", "machine.hpp")):
        raise BenchError("runtime sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")


def clean_env():
    # Stock runtime: no UGNIRT_* override may leak in from the caller.
    return {k: v for k, v in os.environ.items() if not k.startswith("UGNIRT_")}


def instance(workload, seed, mode):
    """Run one driver instance; returns its parsed JSON report."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--trace-base", os.path.join(TRACE_DIR, workload)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           env=clean_env(), timeout=INSTANCE_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} instance timed out")
    if p.returncode != 0:
        raise BenchError(f"{workload} {mode} instance exited {p.returncode}:\n"
                         f"{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} instance printed nothing")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def run_instances(workload, seed, seconds, trace):
    """Instances of one run, grouped by mode."""
    runs = {"plain": [], "setup": [], "spans": [], "traced": []}
    if trace == 0:
        if workload in APP_WORKLOADS:
            # Untimed: the app workloads' message latency comes from spans.
            runs["spans"].append(instance(workload, seed, "spans"))
        for _ in range(SETUP_SAMPLES):
            runs["setup"].append(instance(workload, seed, "setup"))
        t0 = time.monotonic()
        while time.monotonic() - t0 < seconds or len(runs["plain"]) < 2:
            runs["plain"].append(instance(workload, seed, "plain"))
    else:
        t0 = time.monotonic()
        while (time.monotonic() - t0 < seconds or not runs["plain"]
               or not runs["traced"]):
            mode = "plain" if len(runs["plain"]) <= len(runs["traced"]) else "traced"
            runs[mode].append(instance(workload, seed, mode))
    return runs


def check(runs):
    """Correctness and determinism over every instance of the run.

    Returns (correct, attempted, failed, problems).  Operations are counted
    over the timed (plain) and traced instances; a failure in any instance
    is reported, never averaged away.
    """
    problems = []
    attempted = failed = 0
    for mode in ("plain", "traced"):
        for r in runs[mode]:
            attempted += r["attempted"]
            failed += r["failed"]
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    for mode, rs in runs.items():
        for r in rs:
            for name, ok in r["checks"].items():
                if not ok:
                    problems.append(f"{mode} instance: check {name} failed")
    # Every virt_* value must be bit-identical across instances of one seed,
    # whether the machine came from lrts::make_machine or the TimingLayer,
    # with spans on or off.
    reference = None
    for mode in ("plain", "spans", "traced"):
        for r in runs[mode]:
            if reference is None:
                reference = dict(r["virt"])
                continue
            for k, v in r["virt"].items():
                if k in reference and reference[k] != v:
                    problems.append(f"{k} differs across instances "
                                    f"({reference[k]!r} vs {v!r} in {mode})")
                reference.setdefault(k, v)
    return not problems, max(attempted, 1), failed, problems


def end_to_end(runs):
    """Returns {name: (value, samples, q1, median, q3)}.

    run_s is best-of-N: co-tenant interference on a shared host only ever
    slows an instance down, and comes in spells longer than one instance,
    so the fastest instance of a run is the steadiest estimate of what the
    simulator itself costs.  setup_s is the median of the run's set-ups,
    each the cold set-up of a fresh process.  The quartiles are printed
    beside both.
    """
    plain = runs["plain"]
    setups = [r["setup_s"] for mode in ("setup", "spans", "plain")
              for r in runs[mode]]
    rss = [r["peak_rss_mb"] for r in plain]
    out = {}
    for name, values, value in (
            ("setup_s", setups, statistics.median(setups)),
            ("run_s", [r["run_s"] for r in plain], min(r["run_s"] for r in plain)),
            ("peak_rss_mb", rss, statistics.median(rss))):
        out[name] = (value, len(values)) + quartiles(values)
    virt = {}
    for r in runs["spans"] + plain:
        virt.update(r["virt"])
    lat_n = max([r["info"].get("lat_samples", 0)
                 for r in runs["spans"] + plain] or [0])
    for name, _, _, _ in END_TO_END:
        if name.startswith("virt_"):
            n = int(lat_n) if name.startswith("virt_lat") else 1
            out[name] = (virt.get(name, 0.0), n, None, None, None)
    return out


def per_layer(runs):
    """Returns {name: (value, measured)}: medians over the traced instances
    (counts repeat exactly; host times vary), plus the two metrics that
    compare against the best untraced run_s."""
    traced, plain = runs["traced"], runs["plain"]
    values = {}
    for name in traced[0]["layer"]:
        values[name] = statistics.median(r["layer"][name] for r in traced)
    plain_run = min(r["run_s"] for r in plain)
    traced_run = min(r["run_s"] for r in traced)
    values["trace.overhead_frac"] = traced_run / plain_run - 1
    if values.get("sim.events"):
        values["sim.host_ns_per_event"] = plain_run * 1e9 / values["sim.events"]
    out = {}
    for name, _, _ in PER_LAYER:
        out[name] = (values.get(name, 0.0), name in values)
    return out


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns the result object (the last stdout line)."""
    runs = run_instances(workload, seed, seconds, trace)
    correct, attempted, failed, problems = check(runs)
    print(f"workload {workload}  seed {seed}  trace {trace}  instances "
          + ", ".join(f"{m}={len(rs)}" for m, rs in runs.items() if rs))
    metrics = {}
    if trace == 0:
        e2e = end_to_end(runs)
        for name, unit, better, _ in END_TO_END:
            value, n, q1, med, q3 = e2e[name]
            spread = ("" if q1 is None else
                      f"  p25 {q1:.6g}  median {med:.6g}  p75 {q3:.6g}")
            print(f"  {name:<22} {value:>16.8g} {unit:<9} n={n}{spread}  "
                  f"({better} is better)")
            metrics[name] = {"value": value, "unit": unit}
    else:
        layer = per_layer(runs)
        for name, unit, _ in PER_LAYER:
            value, measured = layer[name]
            note = "" if measured else "  (not measured on this workload)"
            print(f"  {name:<34} {value:>16.8g} {unit}{note}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"  failed_frac            {failed / attempted:>16.8g} "
          f"({failed} of {attempted} operations)")
    for p in problems:
        print(f"  PROBLEM: {p}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_test(seconds):
    """Both trace modes on every workload, on two seeds; also checks that
    BENCHMARK.json declares exactly the metrics this script reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in spec["end_to_end"]]
    ok = declared == END_TO_END
    ok &= [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    ok &= [w["name"] for w in spec["workloads"]] == WORKLOADS
    if not ok:
        print("PROBLEM: BENCHMARK.json does not match run.py's metric tables")
    for seed in (1, 7919):
        for workload in WORKLOADS:
            for trace in (0, 1):
                r = run_workload(workload, seed, seconds, trace)
                ok &= r["correct"]
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        build()
        if args.self_test:
            return 0 if self_test(min(args.seconds, 1)) else 1
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
