#!/usr/bin/env python3
"""The mrcost benchmark: one command per workload.

    python3 mrcost_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine and the mrbench binary from this checkout (CMake, into
.bench_build/), runs the workload as a closed loop of Plan::Execute jobs
with every job's outputs checked, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, from untraced jobs; --trace 1 runs traced jobs and
reports the per-layer ledger. The line before it holds context (host
cores, job count, tail percentile, task graph) that is not compared.
See README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger  # noqa: E402

WORKLOADS = ("sweep-inproc", "sweep-wire4", "hamming-inproc",
             "matmul2-spill4")
SETUP_SAMPLES = 7  # the run's own set-up plus six set-up-only processes

END_TO_END_UNITS = {
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "rows_per_s": "rows/s",
    "cpu_ms_per_job": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
    "pairs_shuffled": "pairs",
}

PER_LAYER_UNITS = {
    "plan.build_ms": "ms",
    "plan.estimate_ms": "ms",
    "plan.q_ratio": "ratio",
    "plan.r_ratio": "ratio",
    "plan.bound_ratio": "ratio",
    "plan.rounds": "count",
    "plan.chunks": "count",
    "plan.shards": "count",
    "plan.strategy": "code",
    "executor.map_ms": "ms",
    "executor.shuffle_ms": "ms",
    "executor.reduce_ms": "ms",
    "executor.span_ms": "ms",
    "executor.barrier_wait_ms": "ms",
    "executor.overlap_ms": "ms",
    "executor.busy_ms.map": "ms",
    "executor.busy_ms.group": "ms",
    "executor.busy_ms.reduce": "ms",
    "executor.busy_ms.finalize": "ms",
    "executor.idle_frac": "ratio",
    "executor.map_us_per_krow": "us/krow",
    "executor.serial_job_ms": "ms",
    "shuffle.pairs": "pairs",
    "shuffle.bytes": "bytes",
    "shuffle.bytes_copied": "bytes",
    "shuffle.blocks_emitted": "count",
    "shuffle.partition_skew_ratio": "ratio",
    "shuffle.group_ms": "ms",
    "storage.spill_bytes": "bytes",
    "storage.spill_runs": "count",
    "storage.merge_passes": "count",
    "storage.compression_ratio": "ratio",
    "storage.spill_mb_per_s": "MB/s",
    "wire.bytes": "bytes",
    "wire.fetch_busy_ms": "ms",
    "wire.fetch_stall_ms": "ms",
    "wire.credit_wait_ms": "ms",
    "wire.refetched_runs": "count",
    "wire.mb_per_s": "MB/s",
    "runtime.start_ms": "ms",
    "runtime.stop_ms": "ms",
    "runtime.dispatch_gap_ms": "ms",
    "runtime.map_us_per_krow": "us/krow",
    "runtime.reduce_tail_ms": "ms",
    "runtime.task_attempts": "count",
    "runtime.useful_attempt_ratio": "ratio",
    "runtime.workers_died": "count",
    "obs.trace_overhead": "ratio",
    "obs.untraced_gap_ms": "ms",
}


def build(build_dir):
    """Configures once and builds mrbench (and mrcost-worker beside it)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "mrbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bin", "mrbench")


def mrbench(binary, work_dir, mode, workload, seed, seconds):
    """Runs mrbench in `work_dir` and returns its JSON line."""
    env = dict(os.environ, TMPDIR=os.path.join(work_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload=" + workload, "--seed=%d" % seed,
         "--seconds=%g" % seconds, "--mode=" + mode,
         "--spill_dir=spill", "--trace_dir=traces"],
        cwd=work_dir, env=env, stdout=subprocess.PIPE, check=True, text=True,
        timeout=4 * seconds + 60)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, work_dir, args):
    setups = [mrbench(binary, work_dir, "setup", args.workload, args.seed, 0)
              for _ in range(SETUP_SAMPLES - 1)]
    run = mrbench(binary, work_dir, "run", args.workload, args.seed,
                  args.seconds)
    jobs = run["job_ms"]
    tail_ms, tail_pct, count = ledger.tail(jobs)
    values = {
        "job_ms_p50": statistics.median(jobs),
        "job_ms_tail": tail_ms,
        "rows_per_s": run["input_rows"] * len(jobs) / (sum(jobs) / 1e3),
        "cpu_ms_per_job": statistics.mean(run["cpu_ms"]),
        "setup_s": statistics.median(
            [s["setup_s"] for s in setups] + [run["setup_s"]]),
        "peak_rss_mb": run["peak_rss_mb"],
        "worker_peak_rss_mb": run["worker_peak_rss_mb"],
        "pairs_shuffled": float(statistics.median(run["pairs"])),
    }
    context = {"jobs": count, "tail_percentile": tail_pct,
               "distinct_pairs_shuffled": sorted(set(run["pairs"]))}
    metrics = {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    return setups + [run], metrics, context


def per_layer(binary, work_dir, args):
    run = mrbench(binary, work_dir, "trace", args.workload, args.seed,
                  args.seconds)
    traced = run["traced"]
    if not traced:
        raise RuntimeError("no traced job completed")
    threads, workers = run["threads"], run["workers"]
    ledgers = []
    shapes = None
    for job in traced:
        for key in ("trace", "metrics"):
            job[key] = os.path.join(work_dir, job[key])
        values, job_context = ledger.job_ledger(job, run["estimate"],
                                                threads, workers)
        ledgers.append(values)
        shapes = shapes or job_context["task_graph"]
    values = {k: ledger.median([l[k] for l in ledgers]) for k in ledgers[0]}
    values.update({
        "plan.build_ms": run["build_ms"],
        "plan.estimate_ms": run["estimate_ms"],
        "executor.serial_job_ms": ledger.median(run["serial_job_ms"]),
        "storage.spill_mb_per_s": ledger.median(run["spill_mb_per_s"]),
        "wire.mb_per_s": ledger.median(run["wire_mb_per_s"]),
        "runtime.start_ms": ledger.median(run["coordinator_start_ms"]),
        "runtime.stop_ms": ledger.median(run["coordinator_stop_ms"]),
        "obs.trace_overhead": (
            statistics.median(j["ms"] for j in traced) /
            statistics.median(run["untraced_ms"])),
    })
    context = {"traced_jobs": len(traced),
               "untraced_jobs": len(run["untraced_ms"]),
               "threads": threads, "workers": workers,
               "task_graph": shapes}
    metrics = {k: metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}
    return [run], metrics, context


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build_dir = os.path.join(ROOT, ".bench_build", "mrcost_bench")
    binary = build(build_dir)
    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        measure = per_layer if args.trace else end_to_end
        runs, metrics, context = measure(binary, work_dir, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    errors = [r["first_error"] for r in runs if r["first_error"]]
    context.update({"workload": args.workload, "seed": args.seed,
                    "nproc": os.cpu_count(),
                    "fail_ratio": failed / attempted if attempted else 0.0})
    if errors:
        context["first_error"] = errors[0]
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
