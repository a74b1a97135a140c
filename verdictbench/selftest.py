"""Self-test of the benchmark itself (not of ``repro``).

    python3 verdictbench/selftest.py

Run from the repository root.  Checks that one seed always gives the same
corpus and labels, that the span arithmetic is right, and that a
smoke-sized run of every workload, traced and untraced, finishes within
seconds, checks out correct, and prints exactly the metric names that
``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from corpus import Corpus  # noqa: E402
from run import tail  # noqa: E402

#: a smoke run: one second of measured work, plus set-up and labelling.
SMOKE_SECONDS = 1
SMOKE_LIMIT_S = 60.0


class CorpusTest(unittest.TestCase):

    def test_same_seed_same_corpus_and_labels(self):
        first, again = Corpus(7).take(48), Corpus(7).take(48)
        self.assertEqual(first, again)
        self.assertNotEqual(first, Corpus(8).take(48))

    def test_pairs_are_distinct_and_stratified(self):
        corpus = Corpus(3)
        pairs = corpus.take(len(corpus.slots))
        self.assertEqual(len({(p.sql1, p.sql2) for p in pairs}), len(pairs))
        self.assertEqual(sorted((p.family, p.equivalent, p.mode)
                                for p in pairs), sorted(corpus.slots))
        self.assertEqual(corpus.rejected_equivalent, 0)

    def test_labels_hold_in_sqlite(self):
        corpus = Corpus(5)
        for p in corpus.take(64):
            self.assertEqual(corpus.oracle.differs(p.sql1, p.sql2),
                             not p.equivalent, p)


class StatisticsTest(unittest.TestCase):

    def test_tail_is_the_highest_percentile_ten_samples_deep(self):
        for n, expected in ((100, 90.0), (999, 95.0), (1000, 99.0),
                            (25000, 99.9)):
            values = list(range(n))
            value, percentile = tail(values)
            self.assertEqual(percentile, expected)
            self.assertGreaterEqual(sum(v > value for v in values), 10)

    def test_self_time_subtracts_child_union(self):
        spans = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1],
                 ["c", 3.0, 6.0, 0, 1], ["d", 2.0, 3.0, 1, 1]]
        own = tracing.self_times(spans)
        self.assertAlmostEqual(own["a"], 5.0)
        self.assertAlmostEqual(own["b"], 2.0)
        self.assertAlmostEqual(own["c"], 3.0)
        self.assertAlmostEqual(own["d"], 1.0)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def smoke(self, workload: str, trace: int) -> dict:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", "11",
             "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
            capture_output=True, text=True, timeout=SMOKE_LIMIT_S)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertLess(time.monotonic() - started, SMOKE_LIMIT_S)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_the_declared_metrics(self):
        names = {0: [m["name"] for m in self.spec["end_to_end"]],
                 1: [m["name"] for m in self.spec["per_layer"]]}
        units = {m["name"]: m["unit"] for m in
                 self.spec["end_to_end"] + self.spec["per_layer"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.smoke(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(names[trace]))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])


if __name__ == "__main__":
    unittest.main()
