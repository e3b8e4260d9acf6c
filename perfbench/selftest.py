"""Self-tests of the benchmark harness, on smoke-sized inputs.

    python3 perfbench/selftest.py

Takes about fifteen seconds.  Kept out of the repository's pytest suite, which
collects tests/ only.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Metrics(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self) -> None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = smoke(workload, trace)
                    self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_tail_is_the_eleventh_largest(self) -> None:
        value, level = run.tail_ms([float(i) for i in range(100)])
        self.assertEqual((value, level), (89.0, 90.0))

    def test_without_the_program_it_fails_without_a_result(self) -> None:
        bare = run.RESULTS / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "wide", "--seed", "1", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class ColdIsolation(unittest.TestCase):
    def test_a_second_pass_in_one_process_would_start_warm(self) -> None:
        code = ("import json, worker\n"
                "print(json.dumps([worker.run_pass(w, 1, True, 'plain')['cold']"
                " for w in ('families', 'oracle')]))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        # families fills families.phi and engine._DEFAULT_ENGINE; the oracle
        # pass after it in the same process finds them warm
        self.assertEqual(json.loads(proc.stdout.splitlines()[-1]), [True, False])

    def test_the_harness_starts_every_pass_in_a_fresh_cold_interpreter(self) -> None:
        for workload in ("families", "oracle"):
            smoke(workload, 0)
            record = json.loads((run.RESULTS / f"{workload}-trace0.json").read_text())
            children = record["children"]
            self.assertGreaterEqual(sum(c["mode"] == "plain" for c in children), 2)
            self.assertEqual(len({c["pid"] for c in children}), len(children))
            self.assertTrue(all(c["cold"] for c in children))


class Checker(unittest.TestCase):
    """A wrong or raising item counts as failed; the pass still runs every item."""

    def run_with(self, workload: str, damage) -> dict:
        generate, run_item, check = worker.WORKLOADS[workload]

        done: list = []

        def damaged(gt, item, state):
            out = run_item(gt, item, state)
            if not done:
                done.append(item)
                out = damage(gt, out)
            return out

        with mock.patch.dict(worker.WORKLOADS, {workload: (generate, damaged, check)}):
            return worker.run_pass(workload, 1, True, "plain")

    @staticmethod
    def off_by_one(gt, p):
        coeffs = list(p.coeffs)
        coeffs[0] += 1
        return gt.poly.IntPoly(coeffs)

    def assert_failed(self, result: dict) -> None:
        self.assertEqual(len(result["latencies_ms"]), result["items"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["failed"] / result["items"], 0)

    def test_corrupted_wide_f_vector(self) -> None:
        result = self.run_with("wide", self.off_by_one)
        self.assert_failed(result)
        self.assertEqual(len(result["mismatches"]), 1)

    def test_corrupted_family_route(self) -> None:
        result = self.run_with("families", lambda gt, out: dict(
            out, closed=self.off_by_one(gt, out["closed"])))
        self.assert_failed(result)

    def test_corrupted_oracle_f_vector(self) -> None:
        def damage(gt, out):
            if isinstance(out[0], bool):  # a fiber check
                return (not out[0],) + out[1:]
            return ((out[0][0] + 1,) + out[0][1:],) + out[1:]
        self.assert_failed(self.run_with("oracle", damage))

    def test_an_item_that_raises_is_failed_and_the_pass_goes_on(self) -> None:
        def boom(gt, out):
            raise RuntimeError("injected")
        result = self.run_with("wide", boom)
        self.assert_failed(result)
        self.assertEqual(len(result["raised"]), 1)


if __name__ == "__main__":
    unittest.main()
