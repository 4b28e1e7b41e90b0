"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Named so that a plain ``pytest`` run of the repository does not collect it.
"""

from __future__ import annotations

import signal
import time
import unittest
from pathlib import Path
from tempfile import TemporaryDirectory

import run
import tracing
import workloads


def push_span(rec: tracing.Recorder, name: str, start: float, end: float, parent: int) -> int:
    idx = len(rec.start)
    rec.name.append(rec.name_id(name))
    rec.parent.append(parent)
    rec.op.append(0)
    rec.start.append(start)
    rec.end.append(end)
    return idx


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        rec = tracing.Recorder()
        root = push_span(rec, "a", 0.0, 10.0, -1)
        b = push_span(rec, "b", 1.0, 4.0, root)
        push_span(rec, "c", 2.0, 3.0, b)
        push_span(rec, "d", 5.0, 9.0, root)
        push_span(rec, tracing.BOOKKEEPING, 9.0, 9.5, root)
        push_span(rec, "d", 11.0, 12.5, -1)
        times = rec.self_times()
        self.assertEqual(times["a"], [1, 10.0 - 3.0 - 4.0 - 0.5])
        self.assertEqual(times["b"], [1, 2.0])
        self.assertEqual(times["c"], [1, 1.0])
        self.assertEqual(times["d"], [2, 4.0 + 1.5])

    def test_repair_closes_spans_an_interrupt_left_open(self):
        rec = tracing.Recorder()
        push_span(rec, "a", 0.0, 0.0, -1)
        rec.name.append(rec.name_id("b"))  # an open() cut off after its first append
        rec.repair(0, 7.0)
        self.assertEqual(len(rec.name), 1)
        self.assertEqual(rec.self_times()["a"], [1, 7.0])


class Metrics(unittest.TestCase):
    def test_p90_samples_are_measured_costs_and_charged_failures(self):
        ops = [workloads.Op(name, None, None) for name in ("answers", "fails")]
        m = run.Measurement(ops)
        for k, cost in enumerate((300.0, 100.0, 200.0)):
            m.add(0, cost / 1000, cost, None)
            if k == 0:
                m.add(1, 0.5, 500.0, "NoWitnessFound")
            else:
                m.count_failure(1, "NoWitnessFound")
            m.passes += 1
        charged = run.DEADLINE_REF + 500.0
        self.assertEqual(sorted(m.charged(m.costs, run.DEADLINE_REF)), [100.0, 200.0, 300.0] + [charged] * 3)
        self.assertEqual(m.attempted, 6)
        self.assertEqual(m.ok, 3)
        self.assertEqual(m.op_costs(), [200.0])
        self.assertAlmostEqual(m.ops_per_kref(), 1000 / 200.0)
        self.assertAlmostEqual(m.ops_per_kref(0), 1000 / 300.0)


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        signal.signal(signal.SIGALRM, run._on_alarm)
        cls.program = run.Program(run.ROOT)
        cls.tmp = TemporaryDirectory(dir=run.ROOT)
        cls.workdir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def cheap_ops(self):
        ops = workloads.setup_fixture_grid(self.program, 0, self.workdir)
        return sorted((op for op in ops if "2a7" not in op.name and "induce" not in op.name), key=lambda op: op.name)

    def test_untraced_run_installs_no_wrappers(self):
        self.assertEqual(tracing.installed_wrappers(self.program), [])
        m = run.measure(self.cheap_ops(), 0.0, passes=1)
        self.assertEqual(m.failures, {})
        self.assertEqual(tracing.installed_wrappers(self.program), [])

    def test_install_rebinds_every_copy_and_restore_undoes_it(self):
        original = self.program.linalg.inverse
        patches = tracing.install(self.program, tracing.Recorder())
        try:
            for module in (self.program.linalg, self.program.rep, self.program.equivariance, self.program.induced):
                self.assertIsNot(module.inverse, original)
                self.assertIs(module.inverse.__wrapped__, original)
            self.assertIn("galois_equiv.linalg.Mat.__mul__", tracing.installed_wrappers(self.program))
        finally:
            tracing.restore(patches)
        self.assertEqual(tracing.installed_wrappers(self.program), [])
        self.assertIs(self.program.rep.inverse, original)

    def test_missed_deadline_counts_as_failure(self):
        def swallowing_busy_loop():
            try:
                while True:
                    pass
            except Exception:  # as cli.main does; must not catch the deadline
                return "swallowed"

        ops = [
            workloads.Op("sleep", lambda: time.sleep(5), lambda result: None),
            workloads.Op("spin", swallowing_busy_loop, lambda result: None),
        ]
        saved = run.DEADLINE_S
        run.DEADLINE_S = 0.05
        try:
            m = run.measure(ops, 0.0, passes=1)
            metrics = run.end_to_end(m, 0.0)
        finally:
            run.DEADLINE_S = saved
        self.assertEqual(m.ok, 0)
        self.assertEqual(m.failed, ["deadline", "deadline"])
        self.assertEqual(metrics["ok_frac"][0], 0.0)
        self.assertGreaterEqual(metrics["op_p90_ref"][0], run.DEADLINE_REF)
        self.assertLess(m.busy_s, 1.0)

    def test_height_sweep_answers_pass_their_checks(self):
        ops = workloads.setup_height_sweep(self.program, 0, self.workdir)
        self.assertEqual(len(ops), 2 * len(workloads.HEIGHTS) * workloads.CONJUGATORS_PER_HEIGHT * 2)
        for op in ops:
            if op.name.endswith(("a5_3dim-H3-0.json", "2a7_4dim-H3-0.json")):
                self.assertIsNone(run.run_op(op)[2], op.name)

    def test_traced_and_untraced_ops_print_the_same(self):
        ops = self.cheap_ops()
        queries = workloads.setup_norm_queries(self.program, 0, self.workdir)
        ops += [op for op in queries if "/" in op.name][:20]
        untraced = [run.run_op(op) for op in ops]
        rec = tracing.Recorder()
        patches = tracing.install(self.program, rec)
        try:
            traced = [run.run_op(op, rec) for op in ops]
        finally:
            tracing.restore(patches)
        self.assertGreater(len(rec.start), 0)
        for op, (_, plain, plain_failure, _), (_, wrapped, wrapped_failure, _) in zip(ops, untraced, traced):
            self.assertIsNone(plain_failure, op.name)
            self.assertIsNone(wrapped_failure, op.name)
            if isinstance(plain, tuple) and isinstance(plain[1], str):
                self.assertEqual(plain[:2], wrapped[:2], op.name)
            else:
                self.assertEqual(repr(plain), repr(wrapped), op.name)


if __name__ == "__main__":
    unittest.main()
