"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test builds the runner and runs every workload on tiny inputs
(--smoke), so the first run of the suite takes about a minute.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def span(name, layer, parent, start, end):
    return {"name": name, "layer": layer, "parent": parent,
            "start_s": start, "end_s": end}


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span("experiment", "", -1, 0.0, 10.0),
            span("setup", "", 0, 0.0, 6.0),
            span("topology.build", "topology", 1, 0.0, 1.0),
            span("routing.build", "routing", 1, 1.0, 4.0),
            span("emu.setup", "emu", 1, 4.0, 5.5),
            span("emulate", "emulate", 0, 6.0, 10.0),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["topology"], 1.0)
        self.assertAlmostEqual(selfs["routing"], 3.0)
        self.assertAlmostEqual(selfs["emu"], 1.5)
        self.assertAlmostEqual(selfs["emulate"], 4.0)
        # setup's 0.5 s not covered by a layer call; the root has none.
        self.assertAlmostEqual(selfs["unattributed"], 0.5)
        self.assertAlmostEqual(sum(selfs.values()), 10.0)
        self.assertEqual(set(selfs), set(run.LAYERS))

    def test_nested_layer_spans_charge_only_their_own_time(self):
        spans = [
            span("experiment", "", -1, 0.0, 5.0),
            span("mapper.map_profile", "mapper", 0, 1.0, 4.0),
            span("inner", "partition", 1, 2.0, 3.5),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["mapper"], 1.5)
        self.assertAlmostEqual(selfs["partition"], 1.5)
        self.assertAlmostEqual(selfs["unattributed"], 2.0)

    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(
            run.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]),
            4.0)
        self.assertAlmostEqual(run.covered((0.0, 1.0), []), 0.0)

    def test_chrome_trace_events(self):
        record = {"workload": "w", "seed": 3, "history_hash": "0x1",
                  "spans": [span("experiment", "", -1, 0.5, 2.0),
                            span("routing.build", "routing", 0, 0.5, 1.0)]}
        events = run.chrome_trace(record)["traceEvents"]
        self.assertEqual([e["ph"] for e in events], ["X", "X"])
        self.assertAlmostEqual(events[1]["ts"], 0.5e6)
        self.assertAlmostEqual(events[1]["dur"], 0.5e6)
        self.assertEqual(events[0]["cat"], "unattributed")
        self.assertEqual(events[1]["args"]["parent"], 0)


class NamesTest(unittest.TestCase):
    def test_metric_and_workload_names_use_the_allowed_letters(self):
        names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
        names += [m["name"] for key in ("end_to_end", "per_layer")
                  for m in BENCHMARK[key]]
        names += list(run.WORKLOADS)
        names += [w["name"] for w in BENCHMARK["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        for _, unit, _ in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(unit, UNIT)
        self.assertEqual(len(set(m[0] for m in run.PER_LAYER)),
                         len(run.PER_LAYER))

    def test_benchmark_json_matches_the_command(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in BENCHMARK["end_to_end"]], run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in BENCHMARK["per_layer"]], run.PER_LAYER)


class CommandPrintsEveryMetricTest(unittest.TestCase):
    """Runs the command itself, on tiny inputs, for every workload."""

    def run_command(self, workload, trace):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload",
               workload, "--seed", "11", "--seconds", "1", "--trace",
               str(trace), "--smoke"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=run.ROOT, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_named_metric_is_printed(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_command(workload, trace)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = result["metrics"]
                    named = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    self.assertEqual(set(printed), set(named))
                    for name, unit in named.items():
                        self.assertEqual(printed[name]["unit"], unit)
                        self.assertIsInstance(printed[name]["value"],
                                              (int, float))


if __name__ == "__main__":
    unittest.main()
