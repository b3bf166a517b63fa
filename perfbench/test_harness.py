#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_harness.py

The daemon and smoke tests build `sasta` and `perfbench_probe` into
.bench_build/perfbench first (as run.py does) and use c17-sized inputs.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import harness as h  # noqa: E402
import run  # noqa: E402

TINY_DESIGN = {"columns": 2, "inputs_per_column": 3, "levels": 3, "width": 3}
# Just enough requests that every p90 has ten samples beyond it.
TINY_SCRIPT = {"warm": 110, "resize": 80, "retarget": 30, "swap_pairs": 55}


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(h.percentile(list(range(99)), 0.9))
        self.assertEqual(h.percentile(list(range(100)), 0.9), 89)
        self.assertEqual(sum(1 for x in range(100) if x > 89), 10)

    def test_p50_and_median(self):
        self.assertEqual(h.percentile(list(range(1, 22)), 0.5), 11)
        self.assertIsNone(h.percentile([1.0] * 10, 0.5))
        self.assertEqual(h.median([3, 1, 2]), 2)
        self.assertEqual(h.median([4, 1, 2, 3]), 2.5)

    def test_empty(self):
        self.assertIsNone(h.percentile([], 0.5))


class TallyTest(unittest.TestCase):
    def test_crash_counts_as_failed(self):
        def lost_daemon():
            raise RuntimeError("daemon closed the connection")

        tally = run.Tally()
        self.assertIsNone(tally.attempt("serve session", lost_daemon))
        self.assertEqual(tally.attempt("cli run", len, "abc"), 3)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(h.make_design(5, **TINY_DESIGN), h.make_design(5, **TINY_DESIGN))
        self.assertNotEqual(h.make_design(5, **TINY_DESIGN), h.make_design(6, **TINY_DESIGN))
        inst = [("g%d" % i, "NAND2", 2) for i in range(8)]
        self.assertEqual(h.make_script(3, inst), h.make_script(3, inst))

    def test_script_mix_and_swap_revert_pairs(self):
        inst = [("g%d" % i, c, 2) for i, c in enumerate(h.SWAP_CELLS * 3)]
        orig = {n: c for n, c, _ in inst}
        script = h.make_script(9, inst)
        classes = [h.request_class(line) for line in script]
        self.assertEqual((classes.count("warm"), classes.count("retime"), classes.count("swap")), (250, 150, 100))
        i = 0
        while i < len(script):
            f = script[i].split()
            if f[0] == "swap":
                self.assertNotEqual(f[2], orig[f[1]])
                self.assertEqual(script[i + 1], "swap %s %s" % (f[1], orig[f[1]]))
                i += 2
            else:
                i += 1


class DaemonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.env = h.Env(run.ROOT)
        run.build(cls.env)
        cls.env.probe_run("setup", "--design", "c17", "--reps", "1", timeout=900)

    def test_swap_revert_restores_report_bytes(self):
        text = h.make_design(11, **TINY_DESIGN)
        bench = self.env.path("tiny_swap.bench")
        with open(bench, "w") as f:
            f.write(text)
        instances = h.parse_instances(self.env.probe_run("instances", "--design", bench))
        swaps = [(n, c) for n, c, _ in instances if c in h.SWAP_CELLS][:3]
        self.assertTrue(swaps)
        d = h.Daemon(self.env, "tiny_swap")
        try:
            self.assertIn("result", d.call("load", {"bench_text": text, "netlist": "tiny"})[0])
            start = d.call("analyze")[0]["result"]
            for name, cell in swaps:
                other = next(c for c in h.SWAP_CELLS if c != cell)
                swapped = d.call("eco", {"op": "swap_gate", "instance": name, "cell": other})[0]["result"]
                self.assertTrue(swapped["eco"]["function_changed"])
                back = d.call("eco", {"op": "swap_gate", "instance": name, "cell": cell})[0]["result"]
                self.assertEqual(back["report"], start["report"])
                self.assertEqual(h.response_paths(back), h.response_paths(start))
        finally:
            code, _ = d.close()
        self.assertEqual(code, 0)

    def test_smoke_all_workload_drivers(self):
        """Every workload driver (batch CLI, serve sessions with checkpoints,
        traced run) on c17-sized inputs, with all outputs checked."""
        saved = run.WORKLOADS, run.SERVE_DESIGN, run.SCRIPT, run.load_reference
        c17 = h.run_cli(self.env, ["--threads", "4", "--paths", "10", "c17"])
        try:
            run.WORKLOADS = {
                "batch": {"design": "c17", "serve_share": 0.5},
                "serve": {"design": None, "serve_share": 0.5},
            }
            run.SERVE_DESIGN, run.SCRIPT = TINY_DESIGN, TINY_SCRIPT
            run.load_reference = lambda w: None if w == "serve" else {"listing": c17["listing"]}
            for workload in run.WORKLOADS:
                inputs = run.Inputs(self.env, workload, 21)
                for trace in (0, 1):
                    with self.subTest(workload=workload, trace=trace):
                        tally = run.Tally()
                        if trace:
                            metrics = run.traced(self.env, workload, inputs, tally)
                            self.assertIn("search.parallel_efficiency", metrics)
                        else:
                            metrics = run.measure(self.env, workload, inputs, 0.1, tally)
                            self.assertGreater(metrics["swap_p90_ms"]["value"], 0)
                        self.assertEqual(tally.failed, 0, tally.reasons)
                        self.assertGreater(tally.attempted, 0)
        finally:
            run.WORKLOADS, run.SERVE_DESIGN, run.SCRIPT, run.load_reference = saved


if __name__ == "__main__":
    unittest.main()
