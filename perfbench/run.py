#!/usr/bin/env python3
"""The massf repository benchmark: one whole experiment per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the runner (perfbench_massf, an optimized build of ../src plus the
runner sources) into .bench_build/perfbench on first use, then runs it once
per experiment, each run in its own process:

  --trace 0  runs the untraced experiment at least MIN_RUNS times and
             until --seconds of experiment wall time have been measured,
             then prints the medians of the end-to-end metrics. Run k
             takes its inputs from seed input_seed(--seed, k), so one
             invocation measures several generated inputs;
  --trace 1  runs the experiment on input_seed(--seed, 0) once untraced
             and once traced, checks that the two agree, and prints the
             per-layer metrics: the
             traced run's counters, each layer's self time from its spans
             and the tracing overhead. The spans are also written as Chrome
             trace-event JSON (Perfetto, chrome://tracing) to
             .bench_out/trace-<workload>-seed<n>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted counts experiment runs and failed
those whose correctness checks failed. The exit status is 0 only when every
run passed its checks. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_massf"
OUT_DIR = ROOT / ".bench_out"

# Workload → minimum untraced runs per --trace 0 invocation. Host time on
# a shared machine moves by about 10% from run to run, so each value is a
# median over several runs; hier-1m's 20 s set-up makes every run expensive.
MIN_RUNS = {"profile-brite": 4, "lb-threaded": 4, "hier-1m": 2}
WORKLOADS = tuple(MIN_RUNS)
MAX_RUNS = 12
# Every invocation must end within 180 s once the runner is built; stop
# starting runs well before.
BUDGET_S = 160.0

# (name, unit, better) of every metric printed with --trace 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("emulate_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("modeled_time_s", "s", "lower"),
]

# Layers that spans charge; "unattributed" is the self time of the
# structural spans (experiment, setup) that no layer call covers.
LAYERS = ("topology", "routing", "traffic", "fault", "mapper", "partition",
          "emu", "emulate", "unattributed")

# (name, unit, better) of every metric printed with --trace 1.
PER_LAYER = [
    ("topology.build_s", "s", "lower"),
    ("routing.build_s", "s", "lower"),
    ("routing.memory_mb", "MB", "lower"),
    ("routing.lookup_ns", "ns", "lower"),
    ("mapper.map_top_s", "s", "lower"),
    ("mapper.profile_run_s", "s", "lower"),
    ("mapper.estimate_profile_s", "s", "lower"),
    ("mapper.partition_s", "s", "lower"),
    ("mapper.worst_balance", "ratio", "lower"),
    ("mapper.links_cut", "count", "lower"),
    ("mapper.lookahead_ms", "ms", "higher"),
    ("mapper.segments", "count", "higher"),
    ("partition.build_s", "s", "lower"),
    ("partition.edge_cut", "count", "lower"),
    ("partition.worst_balance", "ratio", "lower"),
    ("emu.setup_s", "s", "lower"),
    ("emu.trains_per_s", "1/s", "higher"),
    ("emu.trains_delivered", "count", "higher"),
    ("emu.trains_dropped", "count", "lower"),
    ("emu.retransmissions", "count", "lower"),
    ("des.events", "count", "lower"),
    ("des.events_per_s", "1/s", "higher"),
    ("des.windows", "count", "lower"),
    ("des.remote_share", "ratio", "lower"),
    ("des.events_per_handoff", "ratio", "higher"),
    ("des.threaded_s", "s", "lower"),
    ("des.parks", "count", "lower"),
    ("des.idle_wait_share", "ratio", "lower"),
    ("des.channel_advances", "count", "lower"),
    ("des.idle_jumps", "count", "lower"),
    ("app.requests", "count", "higher"),
    ("app.responses", "count", "higher"),
    ("app.stale_responses", "count", "lower"),
    ("app.send_failures", "count", "lower"),
    ("app.backend_errors", "count", "lower"),
    ("app.p50_ms", "ms", "lower"),
    ("app.p99_ms", "ms", "lower"),
    ("app.degraded_p99_ms", "ms", "lower"),
    ("fault.epochs", "count", "lower"),
    ("fault.trains_dropped", "count", "lower"),
    ("model.load_imbalance", "ratio", "lower"),
    ("model.modeled_time_s", "s", "lower"),
    ("model.failed_share", "ratio", "lower"),
] + [("self.%s_s" % layer, "s", "lower") for layer in LAYERS] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def input_seed(seed, run):
    """Seed of the inputs of the run-th experiment of one invocation."""
    return seed * 1000 + run


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- Build -----------------------------------------------------------------

def build():
    """Configure (once) and build the runner; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("massf sources not found at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_massf"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: %s" % " ".join(cmd))


# ---- One experiment run ------------------------------------------------------

def run_once(workload, seed, traced, smoke, deadline):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a run could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("run exceeded the time budget: %s" % " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                               proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no record" % " ".join(cmd))
    return json.loads(lines[-1])


def failed_checks(record):
    return [c for c in record["checks"] if not c["ok"]]


# ---- Span arithmetic ---------------------------------------------------------

def covered(interval, children):
    """Length of the part of `interval` covered by the union of `children`."""
    lo, hi = interval
    parts = sorted((max(lo, a), min(hi, b)) for a, b in children)
    total, end = 0.0, lo
    for a, b in parts:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus the part of it that
    its child spans cover, summed by layer. Spans without a layer count as
    "unattributed". Over a properly nested tree the values sum to the root
    span's duration."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start_s"], span["end_s"]))
    out = {layer: 0.0 for layer in LAYERS}
    for index, span in enumerate(spans):
        interval = (span["start_s"], span["end_s"])
        own = interval[1] - interval[0] - covered(interval, children[index])
        layer = span["layer"] or "unattributed"
        out[layer] = out.get(layer, 0.0) + own
    return out


def chrome_trace(record):
    """Spans as Chrome trace-event JSON: one complete ("X") event each."""
    events = []
    for index, span in enumerate(record["spans"]):
        events.append({
            "name": span["name"],
            "cat": span["layer"] or "unattributed",
            "ph": "X",
            "ts": span["start_s"] * 1e6,
            "dur": (span["end_s"] - span["start_s"]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"span": index, "parent": span["parent"]},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "workload": record["workload"],
            "seed": record["seed"],
            "history_hash": record["history_hash"],
        },
    }


# ---- The two modes -----------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, smoke, deadline):
    """--trace 0: untraced runs, medians of the end-to-end metrics."""
    records = []
    started = time.monotonic()
    while True:
        records.append(run_once(workload, input_seed(seed, len(records)),
                                False, smoke, deadline))
        measured = sum(r["wall_s"] for r in records)
        if len(records) >= MIN_RUNS[workload] and measured >= seconds:
            break
        if len(records) >= MAX_RUNS:
            break
        # Start another run only if one more, as long as the slowest so
        # far, still fits the budget.
        longest = max(r["wall_s"] for r in records)
        per_run = (time.monotonic() - started) / len(records)
        if time.monotonic() + max(longest, per_run) * 1.5 > deadline:
            if len(records) < MIN_RUNS[workload]:
                raise BenchError("only %d runs fit the time budget"
                                 % len(records))
            break

    failed = 0
    for r in records:
        problems = failed_checks(r)
        for p in problems:
            log("FAIL %s: %s" % (p["name"], p["detail"]))
        failed += 1 if problems else 0
        print("run %s seed %d: history_hash %s, setup %.4f s, emulate %.4f s"
              % (workload, r["seed"], r["history_hash"], r["setup_s"],
                 r["emulate_s"]))

    def median(key, scale=1.0):
        return statistics.median(r[key] for r in records) * scale

    values = {
        "setup_s": median("setup_s"),
        "emulate_s": median("emulate_s"),
        "wall_s": median("wall_s"),
        "peak_rss_mb": median("peak_rss_bytes", 1e-6),
        "modeled_time_s": median("modeled_time_s"),
    }
    metrics = {name: metric(values[name], unit) for name, unit, _ in END_TO_END}
    return records, failed, metrics


def trace(workload, seed, smoke, deadline):
    """--trace 1: one untraced and one traced run, per-layer metrics."""
    untraced = run_once(workload, input_seed(seed, 0), False, smoke, deadline)
    traced = run_once(workload, input_seed(seed, 0), True, smoke, deadline)
    records = [untraced, traced]

    problems = failed_checks(traced)
    if traced["history_hash"] != untraced["history_hash"]:
        problems.append({"name": "traced_history_hash",
                         "detail": "%s != %s" % (traced["history_hash"],
                                                 untraced["history_hash"])})
    if traced["load_imbalance"] != untraced["load_imbalance"]:
        problems.append({"name": "traced_load_imbalance",
                         "detail": "%r != %r" % (traced["load_imbalance"],
                                                 untraced["load_imbalance"])})
    if workload == "lb-threaded" and (
            traced["threaded_history_hash"] != traced["history_hash"]):
        problems.append({"name": "threaded_history_hash",
                         "detail": "Threaded %s != Sequential %s" % (
                             traced["threaded_history_hash"],
                             traced["history_hash"])})
    selfs = self_times(traced["spans"])
    root = traced["spans"][0]
    traced_wall = root["end_s"] - root["start_s"]
    attributed = sum(selfs.values())
    if abs(attributed - traced_wall) > 1e-6 * max(1.0, traced_wall):
        problems.append({"name": "self_times_sum_to_wall",
                         "detail": "%r != %r" % (attributed, traced_wall)})
    untraced_problems = failed_checks(untraced)
    for p in untraced_problems + problems:
        log("FAIL %s: %s" % (p["name"], p["detail"]))
    failed = int(bool(untraced_problems)) + int(bool(problems))

    values = dict(traced["stats"])
    values["model.load_imbalance"] = traced["load_imbalance"]
    values["model.modeled_time_s"] = traced["modeled_time_s"]
    values["model.failed_share"] = traced["failed_share"]
    for layer, seconds in selfs.items():
        values["self.%s_s" % layer] = seconds
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps(chrome_trace(traced)) + "\n")
    print("run %s seed %d: history_hash %s (untraced %s), trace written to %s"
          % (workload, traced["seed"], traced["history_hash"],
             untraced["history_hash"],
             path.relative_to(ROOT)))
    return records, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the self-test; the numbers "
                             "are not comparable with full runs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
        # The first invocation in a checkout builds; its runs get the same
        # budget as every later invocation's.
        deadline = time.monotonic() + BUDGET_S
        if args.trace:
            records, failed, metrics = trace(args.workload, args.seed,
                                             args.smoke, deadline)
        else:
            records, failed, metrics = measure(args.workload, args.seed,
                                               args.seconds, args.smoke,
                                               deadline)
    except BenchError as error:
        log("perfbench: %s" % error)
        return 2

    # Host context and run configuration of the (last) run, for the record.
    print(json.dumps({"context": records[-1]["context"],
                      "run_config": records[-1]["run_config"]}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
