"""Tests for the benchmark's reductions: the tail-percentile rule, interval
unions, per-lane self time, and one synthetic traced job reduced into the
per-layer ledger.

    python3 -m unittest discover -s mrcost_bench/tests
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import ledger  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_above(self):
        samples = list(range(1, 41))  # 40 samples: p75 has exactly 10 above
        value, pct, count = ledger.tail(samples)
        self.assertEqual((value, pct, count), (30, 75.0, 40))
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        # One sample fewer and p75 has only 9 above: fall back to p50.
        self.assertEqual(ledger.tail(list(range(1, 40)))[:2], (20, 50.0))

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(ledger.tail(samples), ledger.tail(sorted(samples)))

    def test_large_runs_reach_high_percentiles(self):
        self.assertEqual(ledger.tail([float(i) for i in range(500)])[:2],
                         (474.0, 95.0))
        self.assertEqual(ledger.tail([float(i) for i in range(1000)])[:2],
                         (989.0, 99.0))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(ledger.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(ledger.tail(list(range(19)))[:2], (18, 100.0))
        # Twenty samples: the median has exactly ten above it.
        self.assertEqual(ledger.tail(list(range(20)))[:2], (9, 50.0))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            ledger.tail([])


def span(name, lane, start_us, end_us, cat="", **args):
    return {"name": name, "cat": cat, "ph": "X", "pid": lane[0],
            "tid": lane[1], "ts": start_us, "dur": end_us - start_us,
            "args": args}


class Intervals(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(ledger.union_length([(0, 10), (5, 15), (20, 25)]),
                         20)
        self.assertEqual(ledger.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(ledger.union_length([]), 0)

    def test_concurrent_fetches_are_not_summed(self):
        # 16 fetches open across one 100 us window: their sum is 16x the
        # wall time they occupy.
        fetches = ledger.with_self_intervals(ledger.spans(
            [span("FetchRun", (2, 0), i, 100 - i) for i in range(16)]))
        self.assertEqual(ledger.busy_ms(fetches), 100 / 1e3)

    def test_subtract(self):
        self.assertEqual(ledger.subtract((0, 10), [(2, 4), (3, 6), (9, 20)]),
                         [(0, 2), (6, 9)])
        self.assertEqual(ledger.subtract((0, 10), []), [(0, 10)])


class SelfTime(unittest.TestCase):
    def test_children_on_the_same_lane_only(self):
        events = [
            span("Parent", (0, 1), 0, 100),
            span("ChildA", (0, 1), 10, 30),
            span("Grandchild", (0, 1), 15, 20),
            span("ChildB", (0, 1), 50, 60),
            span("OtherLane", (0, 2), 0, 100),
        ]
        by_name = {s["name"]: s for s in
                   ledger.with_self_intervals(ledger.spans(events))}
        self.assertAlmostEqual(ledger.self_ms(by_name["Parent"]), 0.070)
        self.assertAlmostEqual(ledger.self_ms(by_name["ChildA"]), 0.015)
        self.assertAlmostEqual(ledger.self_ms(by_name["Grandchild"]), 0.005)
        self.assertAlmostEqual(ledger.self_ms(by_name["OtherLane"]), 0.100)

    def test_sequential_spans_are_not_nested(self):
        events = [span("A", (0, 0), 0, 10), span("B", (0, 0), 10, 20)]
        for s in ledger.with_self_intervals(ledger.spans(events)):
            self.assertAlmostEqual(ledger.self_ms(s), 0.010)


class JobLedger(unittest.TestCase):
    def write_job(self, tmp, events, counters, rounds):
        trace = os.path.join(tmp, "job.trace.json")
        metrics = os.path.join(tmp, "job.metrics.json")
        with open(trace, "w") as f:
            json.dump({"traceEvents": events}, f)
        with open(metrics, "w") as f:
            json.dump({"counters": counters}, f)
        return {"trace": trace, "metrics": metrics, "begin_us": 0,
                "end_us": 1000, "rounds": rounds}

    def round_metrics(self, **overrides):
        metrics = {key: 0 for key in (
            "num_inputs", "pairs", "bytes", "reducers", "realized_q",
            "realized_r", "lower_bound_r", "map_ms", "shuffle_ms",
            "reduce_ms", "span_ms", "barrier_wait_ms", "overlap_ms",
            "partition_skew_ratio", "spill_bytes", "spill_runs",
            "merge_passes", "blocks_emitted", "bytes_copied",
            "compression_ratio")}
        metrics["strategy"] = "external"
        metrics.update(overrides)
        return metrics

    def test_multi_process_round(self):
        events = [
            span("Round", (0, 0), 100, 900, "round", round=1, chunks=2,
                 shards=1),
            span("dist-map", (2, 0), 150, 250, "dist", round=1),
            span("dist-map", (3, 0), 160, 300, "dist", round=1),
            span("dist-reduce", (2, 0), 310, 880, "dist", round=1),
            span("FetchRun", (2, 0), 320, 700, "fetch", stall_ms=1.5),
            span("FetchRun", (2, 0), 330, 650, "fetch", stall_ms=0.5),
        ]
        rounds = [self.round_metrics(num_inputs=1000, pairs=1000,
                                     realized_q=300, realized_r=1,
                                     lower_bound_r=1)]
        with tempfile.TemporaryDirectory() as tmp:
            job = self.write_job(tmp, events, {"dist.reissued_tasks": 1,
                                               "dist.shuffle_bytes_wire": 7},
                                 rounds)
            out, context = ledger.job_ledger(
                job, [{"predicted_q": 3, "predicted_r": 1}], 4, 2)
        self.assertEqual(context["task_graph"],
                         [{"chunks": 2, "shards": 1, "strategy": "external"}])
        self.assertAlmostEqual(out["plan.q_ratio"], 0.01)
        self.assertEqual(out["plan.bound_ratio"], 1)
        self.assertAlmostEqual(out["runtime.dispatch_gap_ms"], 0.050)
        self.assertAlmostEqual(out["runtime.reduce_tail_ms"], 0.600)
        self.assertAlmostEqual(out["runtime.map_us_per_krow"], 240.0)
        self.assertEqual(out["runtime.task_attempts"], 4)
        self.assertAlmostEqual(out["runtime.useful_attempt_ratio"], 0.75)
        # The second fetch lies inside the first on one lane: busy time is
        # the outer fetch's 380 us, not the 700 us sum.
        self.assertAlmostEqual(out["wire.fetch_busy_ms"], 0.380)
        self.assertAlmostEqual(out["wire.fetch_stall_ms"], 2.0)
        self.assertEqual(out["wire.bytes"], 7)
        # [0, 100) and [900, 1000) of the job window carry no span.
        self.assertAlmostEqual(out["obs.untraced_gap_ms"], 0.200)
        self.assertEqual(out["executor.map_ms"], 0)

    def test_in_process_round(self):
        events = [
            span("Round", (0, 9), 0, 400, "round", round=1, shards=2),
            span("MapPartition", (0, 1), 0, 100, "map", round=1),
            span("MapPartition", (0, 2), 0, 100, "map", round=1),
            span("RouteBlock", (0, 2), 50, 100, "shuffle", round=1),
            span("ShardGroup", (0, 1), 100, 200, "shuffle", round=1),
            span("ReduceShard", (0, 1), 200, 400, "reduce", round=1),
        ]
        rounds = [self.round_metrics(strategy="sharded", num_inputs=2000,
                                     map_ms=0.1)]
        with tempfile.TemporaryDirectory() as tmp:
            job = self.write_job(tmp, events, {}, rounds)
            out, context = ledger.job_ledger(job, [], 2, 0)
        self.assertEqual(context["task_graph"],
                         [{"chunks": 2, "shards": 2, "strategy": "sharded"}])
        self.assertEqual(out["plan.strategy"], ledger.STRATEGY_CODES["sharded"])
        self.assertAlmostEqual(out["executor.busy_ms.map"], 0.100)
        # RouteBlock is nested in a map task, so it counts as group time.
        self.assertAlmostEqual(out["executor.busy_ms.group"], 0.150)
        self.assertAlmostEqual(out["executor.map_us_per_krow"], 100.0)
        # Lane 1 is busy all 400 us, lane 2 for 100 us, of 2 x 400 us.
        self.assertAlmostEqual(out["executor.idle_frac"], 1 - 500 / 800)
        self.assertEqual(out["runtime.task_attempts"], 0)


class Catalog(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(BENCH),
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
