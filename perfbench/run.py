#!/usr/bin/env python3
"""End-to-end benchmark of the paper pipeline (see perfbench/WORKLOADS.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_fig5|lattice_4x4|grid_sweep \
        --seed N --seconds T --trace 0|1

Builds the benchmark program (perfbench/perfbench.cmake) from the
checkout's sources into $CARGO_TARGET_DIR/perfbench-<checkout hash>
(default .bench_build/perfbench-<hash>), runs the workload for T seconds as a closed
loop of single-threaded jobs, checks every job's outputs, and prints a
human-readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ledger of a traced run (its Chrome trace is written next to the build).
The exit code is 0 only if every job passed its output checks: 1 if a
check failed, 2 if there is nothing to build or the build failed, and
3 if the benchmark program crashed or did not finish.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# grid_sweep runs, but BENCHMARK.json leaves it out: on a shared host
# its job time moved too far between runs for the bounds (WORKLOADS.md).
WORKLOADS = ("paper_fig5", "lattice_4x4", "grid_sweep")
# Set-up is measured in this many fresh processes besides the main one,
# half of them before the timed run and half after it, so that they
# sample the host over the whole run; the reported set-up time is the
# median.
SETUP_PROCESSES = 10
# Hang guards. A set-up process runs one job; the timed run runs for
# --seconds and then on until it has its minimum number of jobs, none
# of which should take more than JOB_CEILING_S.
SETUP_TIMEOUT_S = 120
JOB_CEILING_S = 10

# name -> unit. The end-to-end metrics of an untraced run.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "timing_met_frac": "frac",
    "modes_solved": "count",
    "saving_ref_pct": "%",
    "saving_best_pct": "%",
}

# name -> unit. The per-layer metrics of a traced run, per traced job.
PER_LAYER = {
    "gen.build_s": "s",
    "core.flow_s": "s",
    "place.place_s": "s",
    "opt.eco_s": "s",
    "lint.lint_s": "s",
    "sim.activity_s": "s",
    "sim.cache_misses": "count",
    "sim.cache_hit_ratio": "frac",
    "netlist.case_analysis_s": "s",
    "core.explore_s": "s",
    "explore.points_considered": "count",
    "explore.sta_runs": "count",
    "explore.sta_ratio": "frac",
    "explore.mask_pruned": "count",
    "frontier.nodes_expanded": "count",
    "frontier.sta_runs": "count",
    "frontier.certified_modes": "count",
    "core.dvas_s": "s",
    "sta.batch_calls": "count",
    "sta.lanes_per_batch": "lanes",
    "sta.incremental_hit_ratio": "frac",
    "power.energy_scans": "count",
    "flow.relegalized_tiles": "count",
    "lint.warnings": "count",
    "bench.span_coverage_pct": "%",
    "bench.trace_overhead_pct": "%",
}

# job_s_tail per workload: the highest of p50/p75/p90/p95/p99 that keeps
# at least TAIL_BEYOND samples beyond it at the sample count a run of the
# default length reaches (see WORKLOADS.md). A run continues past
# --seconds until it has min_jobs() samples, so the percentile, and with
# it the metric's meaning, is the same on every run.
TAIL_PERCENTILE = {"paper_fig5": 75.0, "lattice_4x4": 75.0,
                   "grid_sweep": 90.0}
TAIL_BEYOND = 10


def min_jobs(percentile, beyond=TAIL_BEYOND):
    """Fewest samples whose nearest-rank `percentile` leaves `beyond`
    samples above it."""
    n = 1
    while n - math.ceil(percentile / 100.0 * n) < beyond:
        n += 1
    return n


def tail(samples, percentile):
    """Nearest-rank percentile of `samples`: (value, samples strictly
    beyond it)."""
    xs = sorted(samples)
    value = xs[max(1, math.ceil(percentile / 100.0 * len(xs))) - 1]
    return value, sum(1 for x in xs if x > value)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_timeout(seconds, jobs):
    """Hang guard of a timed run of `seconds` and at least `jobs` jobs."""
    return SETUP_TIMEOUT_S + seconds + jobs * JOB_CEILING_S


def build_dir(root=ROOT):
    """Build directory of the checkout at `root`. It is named after the
    checkout, so checkouts sharing one CARGO_TARGET_DIR each build and
    time their own sources."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    tag = hashlib.sha1(os.path.realpath(root).encode()).hexdigest()[:12]
    return os.path.join(target, "perfbench-" + tag)


def build(bdir):
    """Configures the checkout's CMake project with the benchmark added
    (perfbench/perfbench.cmake) and builds the benchmark program."""
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DADQ_GIT_DESCRIBE=perfbench",
               "-DCMAKE_PROJECT_INCLUDE=" +
               os.path.join(HERE, "perfbench.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_e2e",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(bdir, "perfbench_e2e")
    return exe if os.path.isfile(exe) else None


def run_program(cmd, timeout):
    """Runs the benchmark program; returns its last stdout line as JSON."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited with %d" % (cmd[0], proc.returncode))
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(raw, setups, percentile):
    wall = raw["wall_s"]
    tail_s, beyond = tail(wall, percentile)
    q = raw["quality"]
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(wall) / raw["loop_s"],
        "job_s_p50": statistics.median(wall),
        "job_s_tail": tail_s,
        "cpu_s_per_job": sum(raw["cpu_s"]) / len(raw["cpu_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
        "timing_met_frac": q["timing_met_frac"],
        "modes_solved": q["modes_solved"],
        "saving_ref_pct": q["saving_ref_pct"],
        "saving_best_pct": q["saving_best_pct"],
    }
    print("timed jobs: %d; job_s_tail is p%g of %d samples (%d beyond it)"
          % (len(wall), percentile, len(wall), beyond))
    print("setup_s: median of %d processes: %s"
          % (len(setups), " ".join("%.4f" % s for s in setups)))
    return {k: metric(values[k], u) for k, u in END_TO_END.items()}


def per_layer_metrics(raw):
    traced = raw["traced"]
    values = {k: statistics.median(job.get(k, 0.0) for job in traced)
              for k in PER_LAYER}
    # The exhaustive sweep and the frontier search are one exploration
    # layer; only lattice_4x4 runs the frontier.
    values["core.explore_s"] = statistics.median(
        job.get("core.explore_s", 0.0) + job.get("core.frontier_s", 0.0)
        for job in traced)
    untraced = statistics.median(raw["wall_s"])
    values["bench.trace_overhead_pct"] = (
        100.0 * (statistics.median(raw["traced_wall_s"]) - untraced)
        / untraced)
    print("traced jobs: %d, untraced jobs: %d"
          % (len(traced), len(raw["wall_s"])))
    return {k: metric(values[k], u) for k, u in PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", action="store_true",
                    help="self-test: corrupt the proposed mode tables")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no repository sources next to %s; nothing to "
            "build" % HERE)
        return 2
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log("perfbench: build failed")
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    if args.tamper:
        cmd.append("--tamper")
    setups = []

    def measure_setups(n):
        for _ in range(0 if args.trace else n):
            setups.append(run_program(cmd + ["--setup-only"],
                                      SETUP_TIMEOUT_S)["setup_s"])

    try:
        measure_setups(SETUP_PROCESSES // 2)
        percentile = TAIL_PERCENTILE[args.workload]
        jobs = 2 if args.trace else min_jobs(percentile)
        run = cmd + ["--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--min-jobs", str(jobs)]
        if args.trace:
            run += ["--trace-out", os.path.join(
                bdir, "trace_%s_%d.json" % (args.workload, args.seed))]
        raw = run_program(run, run_timeout(args.seconds, jobs))
        measure_setups(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log("perfbench: the benchmark program did not finish: %s" % e)
        return 3
    setups.append(raw["setup_s"])

    print("workload %s, seed %d (explorers' seed %d), 1 thread, "
          "mode-table digest %s"
          % (args.workload, raw["seed"], raw["explore_seed"], raw["digest"]))
    for f in raw["failures"]:
        print("FAILED CHECK: %s" % f)
    if args.trace:
        metrics = per_layer_metrics(raw)
    else:
        metrics = end_to_end_metrics(raw, setups, percentile)
    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
