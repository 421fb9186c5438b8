"""Tests of the benchmark itself: every correctness check rejects a corrupted
output, the tracer keeps per-thread parents, and BENCHMARK.json names the
metrics the code reports.  Small configs keep it to a few seconds:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import shutil
import sys
import threading
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import robust_overparam  # noqa: E402,F401  (tracer.install looks the modules up)
from robust_overparam import harness  # noqa: E402,F401

import tracer  # noqa: E402
import workloads  # noqa: E402

SCRATCH = HERE / "out" / "selftest"
SEED = 3  # not a default seed of any workload

SMALL_TRAIN = dict(workloads.TRAIN, n=6, d=5, m=256, eps=0.5, steps=3, restarts=2)
SMALL_COUPLING = dict(workloads.COUPLING, m_list=(64, 128), samples=300, d=6)
SMALL_INTERP = dict(workloads.INTERP, n=4, d=5, delta=1.0, eps=0.6, m=2048, pert_per_point=5)


def _run(wl, name):
    out = SCRATCH / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = wl.prepare(SEED, out)
    return out, inputs, wl.execute(inputs)


class TrainCheck(unittest.TestCase):
    def test_clean_run_passes_and_excess_drift_fails(self):
        wl = workloads.TrainPGA(SMALL_TRAIN)
        out, argv, res = _run(wl, "train")
        self.assertEqual(wl.check(SEED, out, argv, res), [])
        trace = out / "trace.csv"
        lines = trace.read_text().split("\n")
        cells = lines[3].split(",")  # row t = 1
        cells[3] = repr(1.0)  # drift_2inf far above eta * 1 * m^(-1/3)
        lines[3] = ",".join(cells)
        trace.write_text("\n".join(lines))
        failures = wl.check(SEED, out, argv, res)
        self.assertTrue(any("t=1: drift" in f for f in failures), failures)


class CouplingCheck(unittest.TestCase):
    def test_clean_run_passes_and_wrong_gap_fails(self):
        wl = workloads.CouplingSweep(SMALL_COUPLING)
        out, argv, res = _run(wl, "coupling")
        self.assertEqual(wl.check(SEED, out, argv, res), [])
        csv = out / "coupling.csv"
        lines = csv.read_text().split("\n")
        cells = lines[2].split(",")  # the narrowest width, recomputed by the check
        cells[2] = repr(float(cells[2]) * (1.0 + 1e-6))
        lines[2] = ",".join(cells)
        csv.write_text("\n".join(lines))
        failures = wl.check(SEED, out, argv, res)
        self.assertTrue(any("gap" in f and "recomputed" in f for f in failures), failures)


class InterpolantCheck(unittest.TestCase):
    def test_clean_run_passes_and_perturbed_coefficient_fails(self):
        wl = workloads.Interpolant(SMALL_INTERP)
        out, inputs, res = _run(wl, "interpolant")
        self.assertEqual(wl.check(SEED, out, inputs, res), [])
        exact = list(res["exact"])
        j = max(i for i, c in enumerate(exact) if c != 0)
        exact[j] += Fraction(1, 10**6)
        failures = wl.check(SEED, out, inputs, dict(res, exact=exact))
        self.assertTrue(any("exact expansion" in f for f in failures), failures)


class TracerParents(unittest.TestCase):
    def test_parents_are_per_thread(self):
        tr = tracer.Tracer()
        inner = tr.wrap("inner", lambda: time.sleep(0.05))
        outer = tr.wrap("outer", lambda: inner())
        pool = tr.wrap("pool", lambda: [t.start() for t in threads] + [t.join(5) for t in threads])
        threads = [threading.Thread(target=outer) for _ in range(2)]
        t0 = time.perf_counter()
        pool()
        wall = time.perf_counter() - t0
        self.assertFalse(any(t.is_alive() for t in threads))
        by_name = {}
        for i, span in enumerate(tr.spans):
            by_name.setdefault(span[0], []).append((i, span))
        for _, (_, _, _, parent, tid) in by_name["outer"]:
            self.assertIsNone(parent)  # a pool thread's root, not a child of "pool"
        for _, (_, _, _, parent, tid) in by_name["inner"]:
            self.assertEqual(tr.spans[parent][0], "outer")
            self.assertEqual(tr.spans[parent][4], tid)
        agg = tracer.summarize(tr.spans)
        self.assertLess(agg["self_s"]["outer"], 0.04)  # both sleeps sit in "inner"
        self.assertLessEqual(agg["total_s"]["pool"], wall)

    def test_missing_layer_is_reported_absent(self):
        tr = tracer.Tracer()
        tr.install(layers=[("network.gone", "network", "no_such_function", None)])
        self.assertEqual(tr.absent, ["network.gone"])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(tracer.PER_LAYER))
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]], ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"]
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
