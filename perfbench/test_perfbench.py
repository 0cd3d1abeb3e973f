"""Checks of the benchmark itself: the correctness gate and the tracer.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import copy
import random
import sys
import time
import unittest

import run
import tracer
import workloads

sys.path.insert(0, run.SRC)

from trialg.cli import run_config  # noqa: E402


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.config = workloads.verify_mix_job(random.Random(0), N=2)
        cls.report, cls.code = run_config(cls.config)

    def corrupted(self, edit):
        report = copy.deepcopy(self.report)
        edit(report["tasks"])
        return workloads.check_job(self.config, self.code, report)

    def test_clean_report_passes(self):
        self.assertEqual(self.code, 0)
        self.assertEqual(workloads.check_job(self.config, self.code, self.report), [])

    def test_corrupted_reports_fail(self):
        def bump(path):
            def edit(tasks):
                record = next(r for r in tasks if r["task"] == path[0])
                *keys, last = path[1:]
                for key in keys:
                    record = record[key]
                record[last] += 1
            return edit

        def status(tasks):
            tasks[3]["status"] = "error"

        corruptions = {
            "solve dim": bump(("solve:generalized_pair", "dim")),
            "decompose dim": bump(("decompose:centralizing", "dim")),
            "theorem dimension": bump(("verify:posner", "dimensions", "twisted_derivations")),
            "mayne samples": bump(("verify:mayne", "dimensions", "samples")),
            "center dim": bump(("sigma_center", "piB_part", "dim")),
            "error status": status,
            "missing task": lambda tasks: tasks.pop(),
        }
        for name, edit in corruptions.items():
            with self.subTest(name):
                self.assertEqual(len(self.corrupted(edit)), 1)

    def test_nonzero_exit_fails_every_task(self):
        problems = workloads.check_job(self.config, 1, self.report)
        self.assertEqual(len(problems), len(self.config["tasks"]))

    def test_solve_closed_forms(self):
        for algebra, kind in [({"family": "Tn", "n": 3}, "generalized_pair"),
                              ({"family": "block", "dims": [1, 2]}, "derivation")]:
            config = {"field": {"prime": 7}, "algebra": algebra, "tasks": [f"solve:{kind}"]}
            report, code = run_config(config)
            self.assertEqual(workloads.check_job(config, code, report), [])
            report["tasks"][0]["dim"] -= 1
            self.assertEqual(len(workloads.check_job(config, code, report)), 1)


class TracerTest(unittest.TestCase):
    def test_rebinds_names_imported_with_from(self):
        import trialg.algebra
        import trialg.linalg

        original = trialg.linalg.kernel_basis
        t = tracer.Tracer()
        bound = t.install()
        try:
            for binding in [("trialg.maps", "kernel_basis"), ("trialg.algebra", "kernel_basis"),
                            ("trialg.algebra", "solve_linear"), ("trialg.cli", "solve_space"),
                            ("trialg.theorems", "solve_space"), ("trialg.linalg", "rref")]:
                self.assertTrue(binding in bound, f"{binding} was not rebound")
            self.assertIsNot(trialg.algebra.kernel_basis, original)
        finally:
            t.uninstall()
        self.assertIs(trialg.algebra.kernel_basis, original)

    def test_every_required_layer_records_calls(self):
        """One traced round per workload; verify-mix runs twice to compare counters."""
        for workload in workloads.WORKLOADS:
            with self.subTest(workload):
                bench = run.Run(workloads.generate(workload, 0), time.monotonic())
                repeats = 2 if workload == "verify-mix" else 1
                counts = [run.combine(bench.round(traced=True)[1])[1] for _ in range(repeats)]
                self.assertEqual(bench.problems, [])
                for layer in workloads.REQUIRED_LAYERS[workload]:
                    self.assertGreater(counts[0].get(layer + ".calls", 0), 0, layer)
                self.assertEqual(counts[0], counts[-1])


if __name__ == "__main__":
    unittest.main()
