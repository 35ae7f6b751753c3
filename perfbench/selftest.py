"""Self-tests of the benchmark, at a tiny operation size.

Run from the root of a source checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
import unittest
from pathlib import Path

import layers
import run
import workloads

run.import_memlogic()

SEED = 3


def traced_pass(workload: str) -> tuple[dict, list[dict]]:
    runner = run.Runner(workload, SEED, size=workloads.TINY)
    try:
        metrics, _ = run.measure_per_layer(runner, seconds=0)
    finally:
        runner.close()
    return metrics, runner.records


class TracedRunRepeats(unittest.TestCase):
    def test_counts_ratios_and_digests_repeat(self):
        from memlogic import ArrayTopology

        topology = ArrayTopology()
        units = layers.metric_units()
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, first_records = traced_pass(workload)
                second, second_records = traced_pass(workload)
                self.assertEqual(set(first), set(units))
                for name, unit in units.items():
                    if unit != layers.SECONDS:
                        self.assertEqual(first[name], second[name], name)
                self.assertTrue(all(r["ok"] for r in first_records + second_records))
                self.assertEqual([(r["op"], r["digest"]) for r in first_records],
                                 [(r["op"], r["digest"]) for r in second_records])
                self.assertEqual(first["array.pulses_per_drive"],
                                 topology.rows * topology.cols)
                self.assertGreater(first["device.apply_pulse.calls"], 0)
                if workload != "gate":
                    self.assertEqual(first["logic1t1r.default_gate_library.calls"], 0)


class ChecksCatchBadOutputs(unittest.TestCase):
    """Each check must fail when the output it guards is wrong."""

    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.out_dir = Path(tempfile.mkdtemp(dir=run.OUT))
        self.addCleanup(shutil.rmtree, self.out_dir, ignore_errors=True)

    def test_tampered_gate_export_and_exit_code(self):
        seed = workloads.op_seed(SEED, 0)
        raw = workloads.execute("gate", seed, self.out_dir, workloads.TINY)
        outcome = workloads.check("gate", raw, self.out_dir, workloads.TINY)
        self.assertTrue(outcome.ok, outcome.problems)

        wrong_exit = workloads.check("gate", {"exit_code": 1 - raw["exit_code"]},
                                     self.out_dir, workloads.TINY)
        self.assertFalse(wrong_exit.ok)

        traces = self.out_dir / "traces.csv"
        with open(traces, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows[0]["out_bit"] = str(1 - int(rows[0]["out_bit"]))
        with open(traces, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        tampered = workloads.check("gate", raw, self.out_dir, workloads.TINY)
        self.assertFalse(tampered.ok)
        self.assertNotEqual(tampered.digest, outcome.digest)

    def test_sigma_outside_search_interval(self):
        outcome = workloads.check("overlap", {"sigmas": {2: 3.5, 3: 1.0}},
                                  self.out_dir)
        self.assertFalse(outcome.ok)

    def test_digest_mismatch_between_repeats(self):
        runner = run.Runner("gate", SEED)
        runner.records = [{"op": 1, "digest": "a"}, {"op": 1, "digest": "b"},
                          {"op": 2, "digest": "c"}]
        self.assertEqual(run.compare_digests(runner), {1: "a", 2: "c"})
        self.assertEqual(runner.failed, 1)


class MetricDeclarations(unittest.TestCase):
    def test_names_and_units(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        groups = {"end_to_end": run.END_TO_END_UNITS, "per_layer": layers.metric_units()}
        for key, units in groups.items():
            with self.subTest(group=key):
                for name, unit in units.items():
                    self.assertIsNotNone(layers.METRIC_NAME.fullmatch(name), name)
                    self.assertTrue(unit)
                self.assertEqual({m["name"]: m["unit"] for m in declared[key]}, units)
        names = [w["name"] for w in declared["workloads"]]
        self.assertLessEqual(set(names), set(workloads.WORKLOADS))

    def test_tail_has_ten_samples_beyond(self):
        self.assertIsNone(run.tail([1.0] * 10))
        samples = [float(i) for i in range(40)]
        value, pct = run.tail(samples)
        self.assertEqual(pct, 75)
        self.assertEqual(sum(1 for s in samples if s > value), 10)


if __name__ == "__main__":
    unittest.main()
