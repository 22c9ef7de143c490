"""Pure reductions behind the benchmark's numbers: the tail-percentile rule,
interval unions, per-lane self time, and the per-layer ledger of one traced
job. No I/O beyond reading the files a traced job wrote."""

import json
import math
import statistics

MIN_ABOVE_TAIL = 10
# The percentiles a tail is reported at. Short jobs give hundreds of samples
# a run; their 11th-highest moves with every brief stall of the host, while
# p95 keeps 25 or more samples above it.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
STRATEGY_CODES = {"auto": 0, "serial": 1, "sharded": 2, "external": 3}


def tail(samples, min_above=MIN_ABOVE_TAIL):
    """The highest of TAIL_PERCENTILES with at least `min_above` samples
    above it, by nearest rank.

    Returns (value, percentile, count). With too few samples for any of
    them the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    result = (ordered[-1], 100.0, n)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100)
        if n - rank >= min_above:
            result = (ordered[rank - 1], float(pct), n)
    return result


def union_length(intervals):
    """Total length covered by (start, end) intervals; overlaps count once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def subtract(interval, holes):
    """`interval` minus the union of `holes`, as a list of intervals."""
    start, end = interval
    pieces = []
    cursor = start
    for h_start, h_end in sorted(holes):
        h_start, h_end = max(h_start, start), min(h_end, end)
        if h_end <= h_start:
            continue
        if h_start > cursor:
            pieces.append((cursor, h_start))
        cursor = max(cursor, h_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def spans(events):
    """Complete ('X') events as dicts with start/end in microseconds."""
    out = []
    for event in events:
        if event.get("ph") != "X":
            continue
        start = float(event["ts"])
        out.append(
            {
                "name": event["name"],
                "cat": event.get("cat", ""),
                "lane": (event.get("pid", 0), event.get("tid", 0)),
                "start": start,
                "end": start + float(event.get("dur", 0)),
                "args": event.get("args", {}),
            }
        )
    return out


def with_self_intervals(span_list):
    """Adds `self` to every span: its interval minus the part covered by
    its children, where a child is a span nested inside it on the same
    lane (the innermost enclosing span is the parent)."""
    by_lane = {}
    for span in span_list:
        span["children"] = []
        by_lane.setdefault(span["lane"], []).append(span)
    for lane_spans in by_lane.values():
        lane_spans.sort(key=lambda s: (s["start"], -s["end"]))
        stack = []
        for span in lane_spans:
            while stack and stack[-1]["end"] <= span["start"]:
                stack.pop()
            if stack and span["end"] <= stack[-1]["end"]:
                stack[-1]["children"].append(span)
            stack.append(span)
    for span in span_list:
        span["self"] = subtract(
            (span["start"], span["end"]),
            [(c["start"], c["end"]) for c in span["children"]],
        )
    return span_list


def self_ms(span):
    return sum(end - start for start, end in span["self"]) / 1e3


def busy_ms(span_list):
    """Wall time during which any of `span_list` ran its own work: the
    union of their self intervals across every lane."""
    return union_length([iv for s in span_list for iv in s["self"]]) / 1e3


def median(values):
    """Median, or 0 for a layer the workload does not exercise."""
    return statistics.median(values) if values else 0.0


def _round_of(span):
    return span["args"].get("round")


def job_ledger(job, estimate, threads, workers):
    """Per-layer numbers of one traced job.

    `job` is one entry of mrbench's trace-mode `traced` list (its JobMetrics
    per round, its window on the trace clock and its trace and registry
    files); `estimate` is Plan::Estimate's rounds.
    """
    with open(job["trace"]) as f:
        all_spans = with_self_intervals(spans(json.load(f)["traceEvents"]))
    with open(job["metrics"]) as f:
        registry = json.load(f)
    counters = registry.get("counters", {})
    rounds = job["rounds"]
    multi = workers > 0

    named = {}
    for span in all_spans:
        named.setdefault(span["name"], []).append(span)
    round_spans = sorted(named.get("Round", []), key=lambda s: s["start"])

    out = {}

    # plan: the round whose prediction is furthest from what ran.
    def worst(pairs):
        ratios = [p / r for p, r in pairs if p > 0 and r > 0]
        return max(ratios, key=lambda x: max(x, 1 / x)) if ratios else 0.0

    out["plan.q_ratio"] = worst(
        (e["predicted_q"], r["realized_q"]) for e, r in zip(estimate, rounds))
    out["plan.r_ratio"] = worst(
        (e["predicted_r"], r["realized_r"]) for e, r in zip(estimate, rounds))
    first = rounds[0]
    out["plan.bound_ratio"] = (first["realized_r"] / first["lower_bound_r"]
                               if first["lower_bound_r"] > 0 else 0.0)
    out["plan.rounds"] = len(rounds)
    shapes = []
    for index, round_span in enumerate(round_spans):
        args = round_span["args"]
        if "chunks" in args:
            chunks = args["chunks"]
        else:
            chunks = sum(1 for s in named.get("MapPartition", [])
                         if _round_of(s) == args.get("round"))
        strategy = rounds[index]["strategy"] if index < len(rounds) else "auto"
        shapes.append({"chunks": chunks, "shards": args.get("shards", 0),
                       "strategy": strategy})
    out["plan.chunks"] = shapes[0]["chunks"] if shapes else 0
    out["plan.shards"] = shapes[0]["shards"] if shapes else 0
    out["plan.strategy"] = STRATEGY_CODES.get(
        shapes[0]["strategy"] if shapes else "auto", 0)

    inputs = sum(r["num_inputs"] for r in rounds)
    round_ms = sum(s["end"] - s["start"] for s in round_spans) / 1e3

    # executor: the in-process stage graph only.
    executor_keys = ("map_ms", "shuffle_ms", "reduce_ms", "span_ms",
                     "barrier_wait_ms", "overlap_ms")
    task_cats = {"map": "map", "group": "shuffle", "reduce": "reduce",
                 "finalize": "finalize"}
    for key in executor_keys:
        out["executor." + key] = 0.0 if multi else sum(r[key] for r in rounds)
    tasks = [s for s in all_spans if s["cat"] in task_cats.values()]
    for name, cat in task_cats.items():
        out["executor.busy_ms." + name] = busy_ms(
            [s for s in tasks if s["cat"] == cat])
    lanes = {}
    for span in tasks:
        lanes.setdefault(span["lane"], []).extend(span["self"])
    thread_busy_ms = sum(union_length(v) for v in lanes.values()) / 1e3
    out["executor.idle_frac"] = (
        0.0 if multi or round_ms <= 0
        else max(0.0, 1 - thread_busy_ms / (threads * round_ms)))
    map_us = sum(s["end"] - s["start"] for s in named.get("MapPartition", []))
    out["executor.map_us_per_krow"] = (map_us / (inputs / 1e3)
                                       if inputs and not multi else 0.0)

    # shuffle: exact counts from JobMetrics, group time from ShardGroup.
    out["shuffle.pairs"] = sum(r["pairs"] for r in rounds)
    out["shuffle.bytes"] = sum(r["bytes"] for r in rounds)
    out["shuffle.bytes_copied"] = sum(r["bytes_copied"] for r in rounds)
    out["shuffle.blocks_emitted"] = sum(r["blocks_emitted"] for r in rounds)
    out["shuffle.partition_skew_ratio"] = max(
        r["partition_skew_ratio"] for r in rounds)
    out["shuffle.group_ms"] = busy_ms(named.get("ShardGroup", []))

    # storage: the spill files of every round.
    out["storage.spill_bytes"] = sum(r["spill_bytes"] for r in rounds)
    out["storage.spill_runs"] = sum(r["spill_runs"] for r in rounds)
    out["storage.merge_passes"] = sum(r["merge_passes"] for r in rounds)
    ratios = [r["compression_ratio"] for r in rounds
              if r["compression_ratio"] > 0]
    out["storage.compression_ratio"] = (statistics.mean(ratios)
                                        if ratios else 0.0)

    # wire: the streamed fetches; waits are summed over fetches.
    fetches = named.get("FetchRun", [])
    out["wire.bytes"] = counters.get("dist.shuffle_bytes_wire", 0)
    out["wire.fetch_busy_ms"] = busy_ms(fetches)
    out["wire.fetch_stall_ms"] = sum(
        float(s["args"].get("stall_ms", 0)) for s in fetches)
    out["wire.credit_wait_ms"] = sum(
        float(s["args"].get("credit_wait_ms", 0)) for s in fetches)
    out["wire.refetched_runs"] = counters.get("dist.refetched_runs", 0)

    # runtime: the coordinator/worker path, per round.
    gap = tail_ms = 0.0
    tasks_needed = 0
    dist_maps = named.get("dist-map", [])
    for shape, round_span in zip(shapes, round_spans):
        maps = [s for s in dist_maps
                if _round_of(s) == round_span["args"].get("round")]
        if multi:
            tasks_needed += shape["chunks"] + shape["shards"]
        if not maps:
            continue
        gap += (min(s["start"] for s in maps) - round_span["start"]) / 1e3
        tail_ms += (round_span["end"] - max(s["end"] for s in maps)) / 1e3
    out["runtime.dispatch_gap_ms"] = gap
    out["runtime.reduce_tail_ms"] = tail_ms
    dist_map_us = sum(s["end"] - s["start"] for s in dist_maps)
    out["runtime.map_us_per_krow"] = (dist_map_us / (inputs / 1e3)
                                      if inputs and multi else 0.0)
    attempts = (tasks_needed + counters.get("dist.reissued_tasks", 0)
                if multi else 0)
    out["runtime.task_attempts"] = attempts
    out["runtime.useful_attempt_ratio"] = (tasks_needed / attempts
                                           if attempts else 0.0)
    out["runtime.workers_died"] = counters.get("dist.workers_died", 0)

    # obs: the part of the job's wall time that no span covers.
    window = (job["begin_us"], job["end_us"])
    covered = [(max(s["start"], window[0]), min(s["end"], window[1]))
               for s in all_spans]
    out["obs.untraced_gap_ms"] = (
        (window[1] - window[0]) - union_length(covered)) / 1e3

    context = {"task_graph": shapes}
    return out, context
