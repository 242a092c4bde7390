#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # helpers, names, smoke
    python3 perfbench/test_perfbench.py OrderStatistics Spans MetricNames

Run from the root of a checkout; the smoke test builds and runs every
workload at small size (a few minutes, most of it paper-all's MSSP
entries, whose task count does not shrink with --scale); name the
other classes, as in the second line, to leave it out.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as B  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(B.median([3, 1, 2]), 2)
        self.assertEqual(B.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = list(range(1, 11))
        self.assertEqual(B.quartiles(xs), (2.75, 5.5, 8.25))
        self.assertEqual(list(B.quartiles(xs)), statistics.quantiles(xs, n=4))
        self.assertAlmostEqual(B.iqr_share(xs), 5.5 / 5.5)
        self.assertEqual(B.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_percentile_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(B.percentile(xs, 50), 50)
        self.assertEqual(B.percentile(xs, 99), 99)
        self.assertEqual(B.percentile(xs, 100), 100)
        self.assertEqual(B.percentile([5, 1, 3], 50), 3)
        self.assertEqual(B.percentile([5, 1, 3], 1), 1)

    def test_tail_percentile_keeps_ten_beyond(self):
        self.assertIsNone(B.tail_percentile(10))
        self.assertIsNone(B.tail_percentile(19))
        self.assertEqual(B.tail_percentile(20), 50)
        self.assertEqual(B.tail_percentile(100), 90)
        self.assertEqual(B.tail_percentile(1000), 99)
        self.assertEqual(B.tail_percentile(1500), 99)
        self.assertEqual(B.tail_percentile(10000), 99.9)

    def test_summary(self):
        s = B.summary(list(range(1, 1001)))
        self.assertEqual(s, {"median": 500.5, "n": 1000, "p99": 990})
        self.assertEqual(B.summary([2.0, 1.0]), {"median": 1.5, "n": 2})


class Spans(unittest.TestCase):
    SPANS = [
        {"id": 0, "name": "workload", "parent": -1, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "Registry.figure2", "parent": 0, "start": 0.0, "end": 4.0},
        {"id": 2, "name": "Registry.figure7", "parent": 0, "start": 4.0, "end": 10.0},
        {"id": 3, "name": "probes", "parent": -1, "start": 10.0, "end": 13.0},
        {"id": 4, "name": "Machine.run", "parent": 3, "start": 10.0, "end": 12.0},
        {"id": 5, "name": "Cache.run", "parent": 4, "start": 10.5, "end": 11.0},
    ]

    def test_self_time_subtracts_children(self):
        selfs = B.self_times(self.SPANS)
        self.assertAlmostEqual(selfs[0], 0.0)
        self.assertAlmostEqual(selfs[4], 1.5)
        self.assertAlmostEqual(selfs[5], 0.5)

    def test_layer_table(self):
        rows, wall = B.layer_table(self.SPANS)
        self.assertEqual(wall, 10.0)
        by = {r[0]: r for r in rows}
        self.assertEqual(by["Registry"][1:], (2, 10.0, 10.0, 1.0))
        self.assertEqual(by["Machine"][1:4], (1, 2.0, 1.5))
        self.assertIsNone(by["Machine"][4])
        self.assertIn("Registry", B.render_layer_table(rows, wall))


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(B.benchmark_json_path()) as f:
            self.bench = json.load(f)

    def test_names_are_well_formed(self):
        for name, _ in B.END_TO_END + B.PER_LAYER:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, B.NAME_RE)

    def test_names_match_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]], B.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]], B.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(B.WORKLOADS))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_digests_cover_every_input_seed(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            digests = json.load(f)
        for name, wl in B.WORKLOADS.items():
            if wl["kind"] == "experiments":
                got = digests[name]
                self.assertEqual(set(got), {str(B.INPUT_SEED), str(B.HELD_OUT_SEED)})
                for d in got.values():
                    self.assertRegex(d["md5"], r"^[0-9a-f]{32}$")
                    self.assertGreater(d["engine_events"], 0)


class Smoke(unittest.TestCase):
    def test_smoke_runs_every_workload_and_check(self):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        last = p.stdout.strip().splitlines()[-1]
        self.assertEqual(json.loads(last), {"smoke": "ok", "problems": []}, p.stderr[-3000:])
        self.assertEqual(p.returncode, 0)


if __name__ == "__main__":
    unittest.main()
