#!/usr/bin/env python3
"""Tests of the benchmark harness's own rules and self-description.

  python3 perfbench/test_perfbench.py          # fast checks, no build
  PERFBENCH_LIVE=1 python3 perfbench/test_perfbench.py
                                               # also runs every workload
"""
import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location("perfbench_run",
                                              os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

BENCH = run.load_benchmark()
with open(os.path.join(HERE, "layers.json")) as f:
    LAYERS = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}


def synthetic_raw():
    """A harness output with every span and value the harness can emit."""
    samples = {name: [0.001 * (i + 1) for i in range(30)]
               for name in LAYERS["timings"]}
    values = {name: 1.0 for name in LAYERS["values"] if name != "rl.share"}
    parts = [{"ops": [2.0, 4.0], "seconds": [0.5, 1.0]},
             {"ops": [2.0, 4.0], "seconds": [0.4, 1.5]},
             {"ops": [2.0, 4.0], "seconds": [0.6, 1.1]}]
    return {"setup_s": [0.2, 0.1, 0.3], "parts": parts,
            "peak_rss_mb": 12.5, "sim": {"sim_energy_nj": 3.0},
            "samples": samples, "values": values}


class TailRule(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        samples = list(range(1, 101))
        p50, tail, n = run.tail_summary(samples[::-1])
        self.assertEqual((p50, tail, n), (50.5, 90, 100))
        self.assertEqual(sum(s > tail for s in samples), 10)

    def test_the_tail_never_sits_below_the_median(self):
        self.assertEqual(run.tail_summary(range(21)), (10, 10, 21))
        self.assertEqual(run.tail_summary(range(20)), (9.5, 19, 20))

    def test_few_samples_report_the_maximum(self):
        self.assertEqual(run.tail_summary([3.0, 1.0, 2.0]), (2.0, 3.0, 3))


class FastSide(unittest.TestCase):
    def test_each_part_counts_with_its_own_fast_time(self):
        # Fastest episode 0.4 s and fastest grid point 1.0 s, from
        # different repetitions: 6 operations in 1.4 s.
        parts = synthetic_raw()["parts"]
        self.assertAlmostEqual(run.part_throughput(parts), 6.0 / 1.4)

    def test_repetitions_that_did_different_work_are_refused(self):
        parts = synthetic_raw()["parts"]
        parts[1]["ops"] = [2.0, 5.0]
        with self.assertRaises(ValueError):
            run.part_throughput(parts)
        parts[1] = {"ops": [2.0, 4.0], "seconds": [0.4]}
        with self.assertRaises(ValueError):
            run.part_throughput(parts)


class MetricNames(unittest.TestCase):
    def test_pattern(self):
        for good in ("ops_per_s", "rl.update_us.p50", "a-b.c_9"):
            self.assertRegex(good, run.NAME_RE)
        for bad in ("", ".p50", "rl update", "x/y", "a" * 65, "é"):
            self.assertNotRegex(bad, run.NAME_RE)

    def test_every_name_matches_and_is_unique(self):
        names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.NAME_RE)

    def test_every_span_name_has_a_time_unit(self):
        for name in LAYERS["timings"]:
            scale, unit = run.time_unit(name)
            self.assertEqual(PER_LAYER[name + ".p50"]["unit"], unit)


class SelfDescription(unittest.TestCase):
    def test_every_workload_says_why_it_was_chosen(self):
        for w in BENCH["workloads"]:
            self.assertTrue(w["why"].strip())
            self.assertNotIn("\n", w["why"])
            self.assertIn("Caches start empty", w["why"])

    def test_end_to_end_metrics_are_described(self):
        self.assertEqual(set(LAYERS["end_to_end"]), set(END_TO_END))
        self.assertEqual(END_TO_END["setup_s"]["unit"], "s")
        self.assertEqual(END_TO_END["setup_s"]["bound"],
                         max(m["bound"] for m in END_TO_END.values()))

    def test_every_per_layer_metric_names_what_it_moves(self):
        described = set(LAYERS["values"])
        for name in LAYERS["timings"]:
            described |= {name + ".p50", name + ".tail", name + ".n"}
        self.assertEqual(described, set(PER_LAYER))
        for entry in list(LAYERS["timings"].values()) + list(
                LAYERS["values"].values()):
            self.assertIn(entry["moves"]["metric"], END_TO_END)
            # A metric no workload moves says why.
            self.assertTrue(entry["moves"]["workloads"] or
                            entry["moves"].get("note"))
            for w in entry["moves"]["workloads"]:
                self.assertIn(w, WORKLOADS)


class Derivation(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        metrics = run.derive_metrics(synthetic_raw(), 0, BENCH)
        self.assertEqual(set(metrics), set(END_TO_END))
        for name, m in metrics.items():
            self.assertEqual(m["unit"], END_TO_END[name]["unit"])
            self.assertIn(END_TO_END[name]["better"], ("lower", "higher"))
        self.assertAlmostEqual(metrics["ops_per_s"]["value"], 6.0 / 1.4)
        self.assertEqual(metrics["setup_s"]["value"], 0.1)

    def test_traced_run_emits_every_per_layer_metric(self):
        metrics = run.derive_metrics(synthetic_raw(), 1, BENCH)
        self.assertEqual(set(metrics), set(PER_LAYER))
        for name, m in metrics.items():
            self.assertEqual(m["unit"], PER_LAYER[name]["unit"])
            self.assertIn(PER_LAYER[name]["better"], ("lower", "higher"))
        self.assertEqual(metrics["rl.update_us.n"]["value"], 30)
        # 30 samples of 1..30 ms: 10 lie beyond the 20 ms tail.
        self.assertAlmostEqual(metrics["rl.update_us.tail"]["value"], 20000.0)
        self.assertAlmostEqual(metrics["rl.update_us.p50"]["value"], 15500.0)

    def test_a_missing_layer_is_an_error(self):
        raw = synthetic_raw()
        del raw["samples"]["serve.simulate_ms"]
        with self.assertRaises(ValueError):
            run.derive_metrics(raw, 1, BENCH)


@unittest.skipUnless(os.environ.get("PERFBENCH_LIVE") == "1",
                     "set PERFBENCH_LIVE=1 to build and run every workload")
class LiveRuns(unittest.TestCase):
    def test_every_workload_emits_its_metrics(self):
        for workload in WORKLOADS:
            for trace, spec in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=run.ROOT, capture_output=True, text=True,
                        timeout=600)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {k: m["unit"] for k, m in spec.items()})


if __name__ == "__main__":
    unittest.main()
