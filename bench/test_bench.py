"""Tests of the benchmark itself: deterministic inputs, checkers that catch
wrong verdicts, and a smoke run of every workload.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def program_output(case: workloads.Case) -> dict:
    """The program's parsed stdout for one case."""
    from zspersuasion import cli

    with tempfile.TemporaryDirectory() as tmp:
        entry = workloads.write_round([case], Path(tmp))[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(entry["argv"])
    assert code == 0, code
    return json.loads(out.getvalue())


def first_case(workload: str, kind: str) -> workloads.Case:
    return next(c for c in workloads.build_round(workload, 0) if c.kind == kind)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_writes_identical_files(self):
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                first = workloads.write_round(workloads.build_round(workload, 7), Path(a))
                second = workloads.write_round(workloads.build_round(workload, 7), Path(b))
                self.assertEqual(len(first), len(second))
                for x, y in zip(first, second):
                    self.assertEqual(Path(x["path"]).read_bytes(), Path(y["path"]).read_bytes())

    def test_other_seed_writes_other_files(self):
        for workload in workloads.WORKLOADS:
            one = [c.scenario for c in workloads.build_round(workload, 1)]
            two = [c.scenario for c in workloads.build_round(workload, 2)]
            self.assertNotEqual(one, two)


class CheckerTest(unittest.TestCase):
    def assert_rejected(self, kind, scenario, out):
        with self.assertRaises(workloads.CheckFailed):
            workloads.check(kind, scenario, out)

    def test_flipped_edge_verdict(self):
        case = first_case("analyze-ladder", "analyze-zero-sum")
        out = program_output(case)
        workloads.check(case.kind, case.scenario, out)
        flip = {"NeverPooled": "Poolable", "Poolable": "NeverPooled"}
        out["edges"][0]["verdict"] = flip[out["edges"][0]["verdict"]]
        self.assert_rejected(case.kind, case.scenario, out)

    def test_certificate_payoff_off_by_a_thousandth(self):
        case = first_case("exploit-interior", "exploit")
        out = program_output(case)
        workloads.check(case.kind, case.scenario, out)
        out["payoff"] = workloads.fs(Fraction(out["payoff"]) + Fraction(1, 1000))
        self.assert_rejected(case.kind, case.scenario, out)

    def test_nonzero_expected_utility(self):
        case = first_case("verify-grid", "verify")
        out = program_output(case)
        workloads.check(case.kind, case.scenario, out)
        out["expected_utilities"][-1] = "1/7"
        self.assert_rejected(case.kind, case.scenario, out)

    def test_oracle_verdicts_follow_the_theorem(self):
        zero = workloads.binary_scenario(random.Random(0), random.Random(1), zero=True)
        signed = workloads.binary_scenario(random.Random(0), random.Random(1), zero=False)
        found = {"verdict": "NonRevealingEquilibriumFound"}
        only = {"verdict": "OnlyFullyRevealingFound"}
        workloads.check("oracle-binary", zero, found)
        workloads.check("oracle-binary", signed, only)
        self.assert_rejected("oracle-binary", zero, only)
        self.assert_rejected("oracle-binary", signed, found)


class TimeCapTest(unittest.TestCase):
    def test_runaway_call_is_stopped_and_reported(self):
        import signal

        import worker
        from zspersuasion import cli

        case = first_case("exploit-interior", "exploit")
        previous = signal.signal(signal.SIGALRM, worker._alarm)
        cap, worker.OP_CAP_S = worker.OP_CAP_S, 0.05
        try:
            with tempfile.TemporaryDirectory() as tmp:
                entry = workloads.write_round([case], Path(tmp))[0]
                elapsed, code, _, _ = worker.run_case(cli, entry["argv"])
        finally:
            worker.OP_CAP_S = cap
            signal.signal(signal.SIGALRM, previous)
        self.assertEqual(code, -1)
        self.assertLess(elapsed, 1.0)


class SmokeTest(unittest.TestCase):
    def test_smallest_case_of_each_workload(self):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        self.assertEqual([r["workload"] for r in lines], list(workloads.WORKLOADS))
        self.assertTrue(all(r["ok"] for r in lines))
        self.assertLess(time.perf_counter() - start, 60)


if __name__ == "__main__":
    unittest.main()
