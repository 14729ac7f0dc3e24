"""Tests of the benchmark's own arithmetic: python3 -m unittest discover perfbench"""

import json
import math
import os
import unittest

import run


def span(name, start, end, parent=-1, thread=0):
    return {"name": name, "id": 0, "thread": thread, "parent": parent,
            "start": start, "end": end}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7], 99), 7)

    def test_unanswered_queries_rank_past_every_limit(self):
        values = [10.0] * 98 + [math.inf] * 2
        self.assertEqual(run.percentile(values, 98), 10.0)
        self.assertEqual(run.percentile(values, 99), math.inf)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(100000), 99.99)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_empty_percentile_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SpanSelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span("a", 10, 30)]), [20])

    def test_children_are_subtracted_once_where_they_overlap(self):
        spans = [span("day", 0, 100), span("x", 10, 40, 0), span("y", 30, 50, 0),
                 span("z", 70, 80, 0)]
        self.assertEqual(run.self_times(spans)[0], 100 - 40 - 10)

    def test_children_on_other_threads_run_alongside(self):
        spans = [span("fan_out", 0, 100), span("busy", 0, 90, 0, thread=1),
                 span("busy", 5, 95, 0, thread=2)]
        self.assertEqual(run.self_times(spans), [100, 90, 90])
        self.assertEqual(run.layer_seconds(spans)["busy"], 180e-9)

    def test_grandchildren_count_against_their_own_parent(self):
        spans = [span("a", 0, 100), span("b", 10, 60, 0), span("c", 20, 30, 1)]
        self.assertEqual(run.self_times(spans), [50, 40, 10])

    def test_union_length(self):
        self.assertEqual(run.union_length([]), 0)
        self.assertEqual(run.union_length([(0, 10), (5, 15), (20, 25)]), 20)

    def test_slope(self):
        self.assertAlmostEqual(run.slope([0, 1, 2, 3], [5, 7, 9, 11]), 2.0)
        self.assertEqual(run.slope([0], [5]), 0.0)


class CommitGaps(unittest.TestCase):
    def test_changes_within_a_burst_are_one_commit(self):
        changes = [0.02, 0.025, 0.55, 0.566, 0.886, 0.888, 1.157]
        gaps = run.commit_gaps(changes)
        self.assertEqual(len(gaps), 3)
        for got, want in zip(gaps, [0.53, 0.336, 0.271]):
            self.assertAlmostEqual(got, want)

    def test_fewer_than_two_bursts_have_no_gap(self):
        self.assertEqual(run.commit_gaps([]), [])
        self.assertEqual(run.commit_gaps([1.0, 1.01]), [])


class MetricNamesAndUnits(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_benchmark_json_matches_what_run_prints(self):
        e2e = [(m["name"], m["unit"], m["better"]) for m in self.spec["end_to_end"]]
        self.assertEqual(e2e, run.E2E)
        layers = [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]]
        self.assertEqual(layers, [(n, u, b) for n, u, b, _ in run.LAYERS])
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_every_name_and_unit_is_well_formed(self):
        for n, u, b in run.E2E + [(n, u, b) for n, u, b, _ in run.LAYERS]:
            run.check_metric(n, u, b)
        names = [n for n, _, _ in run.E2E] + [n for n, _, _, _ in run.LAYERS]
        self.assertEqual(len(names), len(set(names)))

    def test_malformed_names_and_units_are_rejected(self):
        for bad in (("_x", "s", "lower"), ("x" * 65, "s", "lower"), ("a b", "s", "lower"),
                    ("x", "µs", "lower"), ("x", "s" * 17, "lower"), ("x", "s", "faster")):
            with self.assertRaises(ValueError):
                run.check_metric(*bad)

    def test_metric_lines_round_trip(self):
        line = run.format_metric_line("serve.frontend_p99_us", 14.631, "us")
        self.assertEqual(run.parse_metric_line(line), ("serve.frontend_p99_us", 14.631, "us"))
        self.assertEqual(run.parse_metric_line("work_per_s 207759.29 1/s"),
                         ("work_per_s", 207759.29, "1/s"))
        with self.assertRaises(ValueError):
            run.parse_metric_line("latency 12")


if __name__ == "__main__":
    unittest.main()
