#!/usr/bin/env python3
"""Unit tests of the benchmark's own arithmetic: the percentile rule, the
ground-truth name parsing and evaluation, and the metric derivations.

    python3 perfbench/test_run.py
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(run.percentile(xs, 0.5), 5)
        self.assertEqual(run.percentile(xs, 0.9), 9)
        self.assertEqual(run.percentile(xs, 1.0), 10)
        self.assertEqual(run.percentile([7], 0.9), 7)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(100)), 0.9), 89)
        self.assertIsNone(run.tail_percentile(list(range(99)), 0.9))
        self.assertIsNone(run.tail_percentile(list(range(12)), 0.9))
        self.assertIsNone(run.tail_percentile([], 0.9))
        self.assertEqual(run.tail_percentile(list(range(200)), 0.9), 179)

    def test_unordered_input(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(run.percentile(xs, 0.5), 3)


class TruthNames(unittest.TestCase):
    def test_read_truth(self):
        self.assertEqual(run.parse_read_truth("r0;pos=14;strand=-"),
                         (14, True, False))
        self.assertEqual(run.parse_read_truth("r12;pos=0;strand=+;junk=1"),
                         (0, False, True))

    def test_read_truth_rejects_names_without_truth(self):
        for bad in ("r0", "r0;pos=14", "r0;pos=x;strand=+", "r0;pos=1;strand=",
                    "r0;pos=1;strand=?"):
            with self.assertRaises(ValueError, msg=bad):
                run.parse_read_truth(bad)

    def test_contig_truth(self):
        self.assertEqual(run.parse_contig_truth("contig3:1200-4100"),
                         (1200, 4100))
        with self.assertRaises(ValueError):
            run.parse_contig_truth("contig3")

    def test_sam_records(self):
        text = ("@HD\tVN:1.6\n@SQ\tSN:c0:0-100\tLN:100\n"
                "r0;pos=5;strand=+\t0\tc0:0-100\t6\t60\t10M\t*\t0\t0\tACGT\t*"
                "\tAS:i:20\tNM:i:0\n")
        self.assertEqual(run.parse_sam_records(text),
                         [("r0;pos=5;strand=+", 0, "c0:0-100", 6, 60, 20)])
        no_tags = "r1;pos=5;strand=-\t16\tc0:0-100\t9\t30\t4M\t*\t0\t0\tACGT\t*"
        self.assertEqual(run.parse_sam_records(no_tags),
                         [("r1;pos=5;strand=-", 16, "c0:0-100", 9, 30, 0)])
        last_tag = "r2;pos=5;strand=+\t0\tc0:0-100\t9\t30\t4M\t*\t0\t0\tA\t*\tAS:i:-3"
        self.assertEqual(run.parse_sam_records(last_tag)[0][5], -3)


def rec(qname, rname, pos1, reverse=False, score=10):
    return (qname, 16 if reverse else 0, rname, pos1, 30, score)


class Evaluation(unittest.TestCase):
    truth = run.make_truth({
        "r0;pos=105;strand=+": True,     # placed correctly
        "r1;pos=150;strand=-": True,     # wrong strand -> misplaced
        "r2;pos=300;strand=+": True,     # not aligned
        "r3;pos=0;strand=+;junk=1": False,  # junk, aligned -> false positive
        "r4;pos=120;strand=+": False,    # unfindable but placed
    })

    def test_confusion(self):
        records = [
            rec("r0;pos=105;strand=+", "c0:100-400", 8),  # 100+7 within 3
            rec("r1;pos=150;strand=-", "c0:100-400", 51, reverse=False),
            rec("r3;pos=0;strand=+;junk=1", "c0:100-400", 1),
            rec("r4;pos=120;strand=+", "c0:100-400", 21),
            rec("ghost;pos=1;strand=+", "c0:100-400", 1),
        ]
        ev = run.evaluate(records, self.truth)
        self.assertEqual(ev["total"], 5)
        self.assertEqual(ev["junk"], 1)
        self.assertEqual(ev["findable"], 3)
        self.assertEqual(ev["aligned"], 4)
        self.assertEqual(ev["correct"], 2)
        self.assertEqual(ev["misplaced"], 1)
        self.assertEqual(ev["junk_aligned"], 1)
        self.assertEqual(ev["unknown_qnames"], 1)
        # core::EvalResult: placed (correct + misplaced) over findable.
        self.assertAlmostEqual(ev["recall_findable"], 3 / 3)
        self.assertAlmostEqual(ev["placement_precision"], 2 / 3)

    def test_tolerance_edge(self):
        truth = run.make_truth({"r0;pos=105;strand=+": True})
        ok = run.evaluate([rec("r0;pos=105;strand=+", "c:100-400", 9)], truth)
        off = run.evaluate([rec("r0;pos=105;strand=+", "c:100-400", 10)], truth)
        self.assertEqual(ok["correct"], 1)   # 100 + 8 = 108: 3 away
        self.assertEqual(off["correct"], 0)  # 109: 4 away

    def test_best_record_by_score_first_on_ties(self):
        truth = run.make_truth({"r0;pos=105;strand=+": True})
        right = rec("r0;pos=105;strand=+", "c:100-400", 6, score=30)
        wrong = rec("r0;pos=105;strand=+", "c:100-400", 200, score=30)
        worse = rec("r0;pos=105;strand=+", "c:100-400", 6, score=5)
        self.assertEqual(run.evaluate([right, wrong], truth)["correct"], 1)
        self.assertEqual(run.evaluate([wrong, right], truth)["correct"], 0)
        self.assertEqual(run.evaluate([worse, wrong], truth)["correct"], 0)

    def test_empty(self):
        ev = run.evaluate([], run.make_truth({"r0;pos=1;strand=+": True}))
        self.assertEqual(ev["recall_findable"], 0.0)
        self.assertEqual(ev["placement_precision"], 0.0)


def span(name, ts, dur):
    return {"name": name, "ts": ts, "dur": dur}


class Telemetry(unittest.TestCase):
    def test_phase_clusters_split_on_gaps(self):
        events = [span("phase:align", 0, 100), span("phase:align", 5, 50),
                  span("phase:align", 500, 40), span("phase:align", 510, 20),
                  span("phase:index.build", 0, 999)]
        clusters = run.phase_clusters(events, "align")
        self.assertEqual(len(clusters), 2)
        self.assertAlmostEqual(clusters[0][0], 100e-6)
        self.assertAlmostEqual(clusters[0][1], 75e-6)
        self.assertAlmostEqual(clusters[1][0], 40e-6)
        self.assertAlmostEqual(clusters[1][1], 30e-6)
        self.assertEqual(run.phase_clusters(events, "index.mark"), [])

    def test_phase_cluster_chains_through_overlap(self):
        # A starts, B starts inside A and ends after it, C starts inside B
        # only: all one barrier-delimited phase.
        events = [span("phase:align", 0, 10), span("phase:align", 5, 20),
                  span("phase:align", 20, 3)]
        self.assertEqual(len(run.phase_clusters(events, "align")), 1)

    def test_shard_imbalance(self):
        events = [span("shard.batch", 0, 100), span("shard 0 align", 1, 60),
                  span("shard 1 align", 1, 20),
                  span("shard.batch", 200, 100), span("shard 0 align", 201, 40),
                  span("shard 1 align", 201, 40)]
        # (60 + 40) / (40 + 40)
        self.assertAlmostEqual(run.shard_imbalance(events), 100 / 80)
        self.assertEqual(run.shard_imbalance([]), 1.0)

    def test_prometheus_and_tenant_skipping(self):
        text = ("# HELP mera_sw_calls_total x\n# TYPE mera_sw_calls_total counter\n"
                'mera_sw_calls_total{kernel="full",isa="native"} 10\n'
                'mera_sw_calls_total{kernel="full",isa="native",tenant="t0"} 4\n'
                'mera_cache_hits_total{cache="seed"} 3\n'
                'mera_cache_hits_total{cache="target"} 5\n'
                "mera_serve_autosaves_total 2\n")
        series = run.parse_prometheus(text)
        self.assertEqual(len(series), 5)
        self.assertEqual(run.metric_sum(series, "mera_sw_calls_total"), 10)
        self.assertEqual(run.metric_sum(series, "mera_cache_hits_total",
                                        cache="seed"), 3)
        self.assertEqual(run.metric_sum(series, "mera_serve_autosaves_total"), 2)
        self.assertEqual(run.metric_sum(series, "absent_total"), 0)

    def test_metrics_json(self):
        obj = {"counters": [{"name": "a", "labels": {}, "value": 1.5}],
               "gauges": [{"name": "b", "labels": {"x": "y"}, "value": 2}],
               "histograms": []}
        self.assertEqual(run.parse_metrics_json(obj),
                         [("a", {}, 1.5), ("b", {"x": "y"}, 2.0)])

    def test_cli_stats_sum_over_batches(self):
        block = ("reads processed      100\n"
                 "reads aligned        90  (90.0%)\n"
                 "alignments reported  120\n"
                 "exact-match reads    50  (55.6% of aligned)\n"
                 "seeds indexed        0\n"
                 "seed lookups         5000  (cache hits 10)\n"
                 "target fetches       70  (cache hits 3)\n"
                 "Smith-Waterman calls 70  (7000 DP cells)\n"
                 "memcmp fast paths    60\n"
                 "lookups truncated    25\n")
        s = run.parse_cli_stats("[meraligner] batch 1/2\n" + block + block)
        self.assertEqual(s, dict(reads=200, aligned=180, records=240,
                                 exact=100, lookups=10000, truncated=50,
                                 sw_calls=140, sw_cells=14000))

    def test_batch_latencies(self):
        lines = [(0.5, "[meraligner] index built: 10 entries"),
                 (1.0, "[meraligner] batch 1/3 (a.fastq): 9/10 reads"),
                 (1.25, "[meraligner] batch 2/3 (b.fastq): 9/10 reads"),
                 (2.0, "[meraligner] batch 3/3 (c.fastq): 9/10 reads"),
                 (2.1, "[meraligner] prefetch: 1.5 real s")]
        self.assertEqual(run.batch_latencies(lines), [0.5, 0.25, 0.75])
        self.assertEqual(run.batch_latencies(lines[1:]), [])


class Arithmetic(unittest.TestCase):
    def test_rel_spread(self):
        self.assertAlmostEqual(run.rel_spread([100, 102, 98]), 4 / 100)
        self.assertEqual(run.rel_spread([7]), 0.0)

    def test_ratio_guards_zero(self):
        self.assertEqual(run.ratio(3, 0), 0.0)
        self.assertEqual(run.ratio(3, 4), 0.75)

    def test_keep_measuring(self):
        self.assertTrue(run.keep_measuring(time.perf_counter(), 0.0, 0))
        now = time.perf_counter()
        # 1 sample took 4 s of a 10 s budget: another fits.
        self.assertTrue(run.keep_measuring(now - 4.0, 10.0, 1))
        # 2 samples took 8 s: half a third (2 s) would reach the budget.
        self.assertFalse(run.keep_measuring(now - 8.0, 10.0, 2))


if __name__ == "__main__":
    unittest.main()
