"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import signal
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

PROG = run.load_program(run.ROOT)
PINS = run.load_pins()
EXPECTED = catalog.closed_forms(PROG)


def instance(instance_id: str) -> catalog.Instance:
    return next(i for insts in catalog.CATALOG.values() for i in insts if i.id == instance_id)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        # 0: parent [0, 10]; 1 and 2 overlap; 3 nests in 1; 4 runs past the parent's end
        start = [0.0, 1.0, 3.0, 2.0, 8.0]
        end = [10.0, 4.0, 6.0, 3.0, 12.0]
        parent = [-1, 0, 0, 1, 0]
        own = spans.self_times(start, end, parent)
        self.assertEqual(own, [10 - (5 + 2), 3 - 1, 3.0, 1.0, 4.0])

    def test_childless_span_keeps_its_duration(self):
        self.assertEqual(spans.self_times([1.0], [2.5], [-1]), [1.5])


class Tail(unittest.TestCase):
    def test_ten_samples_above(self):
        latencies = [float(x) for x in range(100, 0, -1)]
        value, percentile = run.tail(latencies)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(x > value for x in latencies), 10)
        self.assertEqual(percentile, 90.0)

    def test_smallest_sample_count(self):
        value, percentile = run.tail([float(x) for x in range(1, 12)])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(percentile, 100 / 11)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)

    def test_long_pass_takes_the_median_over_blocks(self):
        block = [float(x) for x in range(1, run.TAIL_BLOCK + 1)]
        spikes = block[:-3] + [1e6] * 3  # an interrupt in three solves of one block
        value, percentile = run.tail(block + spikes + block)
        self.assertEqual(value, float(run.TAIL_BLOCK - 10))
        self.assertAlmostEqual(percentile, 100.0 * (run.TAIL_BLOCK - 10) / run.TAIL_BLOCK)


class Speed(unittest.TestCase):
    def test_solve_is_scaled_by_the_probes_around_it(self):
        clock = speed.Clock(every=0.0, during=False)
        with mock.patch.object(speed, "probe", side_effect=[1.0, 3.0, 2.0]):
            for _ in range(2):
                clock.before()
                clock.stop()
            clock.after()
        nominal = speed.NOMINAL_S
        self.assertEqual(clock.normalised([4.0, 5.0]), [4.0 * nominal / 2.0, 5.0 * nominal / 2.5])

    def test_probes_only_between_sections_and_not_too_often(self):
        clock = speed.Clock(every=3600.0, during=False)
        with mock.patch.object(speed, "probe", return_value=speed.NOMINAL_S) as probe:
            for _ in range(5):
                clock.before()
                clock.stop()
            clock.after()
        self.assertEqual(probe.call_count, 2)
        self.assertEqual(clock.normalised([1.0] * 5), [1.0] * 5)

    def test_probes_inside_a_long_section_and_reports_their_time(self):
        clock = speed.Clock(every=0.02)
        with mock.patch.object(speed, "probe", return_value=speed.NOMINAL_S / 2):
            clock.before()
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            inside = clock.stop()
            clock.after()
        self.assertGreater(len(clock.probes), 3)
        self.assertGreater(inside, 0.0)
        self.assertAlmostEqual(clock.factor(0), 2.0)
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class OneRound(unittest.TestCase):
    def test_partial_round_weighs_as_a_whole_round(self):
        cheap = catalog.Instance("cheap", "count", repeat=3)
        dear = catalog.Instance("dear", "count")
        done = run.Pass(instances=[cheap, dear, cheap, cheap, cheap], counts={"cheap": 1, "dear": 10})
        seconds, solves, actions, p50 = run.one_round(done, [1.0, 8.0, 2.0, 1.0, 9.0])
        self.assertEqual((seconds, solves, actions, p50), (3 * 1.5 + 8.0, 4, 3 * 1 + 10, 1.5))


class Inputs(unittest.TestCase):
    def inputs(self, workload, seed, n_rounds=3):
        gen = catalog.rounds(workload, seed)
        return [
            [(s.instance.id, str(catalog.prepare(s, PROG))) for s in next(gen)]
            for _ in range(n_rounds)
        ]

    def test_same_seed_same_inputs(self):
        for workload in catalog.WORKLOADS:
            self.assertEqual(self.inputs(workload, 7), self.inputs(workload, 7))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(self.inputs("twist_wide", 7), self.inputs("twist_wide", 8))

    def test_scaled_vector_matches_argv(self):
        solve = catalog.Solve(instance("sharp5_enum_cli"), Fraction(3, 7), 2)
        argv = solve.argv()
        self.assertEqual(argv[argv.index("-g") + 1], "2")
        self.assertEqual(PROG.cli.parse_vector(argv[2]), dataclasses.replace(solve.vector(PROG), genus=1))


class OutputCheck(unittest.TestCase):
    def test_pins_hold_at_other_scale_and_genus(self):
        for inst_id in ("count_sharp2", "enum_k2", "invariants_auto", "reduce_long8", "bad_shape"):
            solve = catalog.Solve(instance(inst_id), Fraction(5, 3), 3)
            got = catalog.digest(solve, catalog.execute(solve, catalog.prepare(solve, PROG), PROG))
            self.assertIsNone(catalog.check(solve, got, PINS, EXPECTED), inst_id)

    def test_wrong_library_count_is_caught(self):
        real = PROG.enumeration.count_actions

        def off_by_one(v):
            report = real(v)
            return dataclasses.replace(report, stage_counts=report.stage_counts[:-1] + (report.count + 1,))

        solve = catalog.Solve(instance("collide_cremona_41"), Fraction(2), 1)
        with mock.patch.object(PROG.enumeration, "count_actions", off_by_one):
            got = catalog.digest(solve, catalog.execute(solve, catalog.prepare(solve, PROG), PROG))
        self.assertIn("differs from the pinned", catalog.check(solve, got, PINS, EXPECTED))

    def test_wrong_cli_count_counts_as_failed(self):
        real = PROG.enumeration.count_actions

        def off_by_one(v, jobs=1):
            report = real(v)
            return dataclasses.replace(report, stage_counts=report.stage_counts[:-1] + (report.count + 1,))

        solve = catalog.Solve(instance("count_sharp2"), Fraction(1), 1)
        with mock.patch.object(PROG.cli, "count_actions", off_by_one):
            done = run.timed_pass(itertools.repeat([solve]), 0.0, PROG, PINS, EXPECTED, speed.Clock())
        self.assertEqual(len(done.failures), len(done.latencies))
        self.assertEqual(len(done.latencies), run.MIN_SAMPLES)
        self.assertIn("closed form max_count gives 3", done.failures[0])


class Tracing(unittest.TestCase):
    def test_direct_imports_are_patched_and_restored(self):
        direct = PROG.enumeration.are_equivalent
        with spans.tracing(spans.Tracer()):
            self.assertIsNot(PROG.enumeration.are_equivalent, direct)
            self.assertIs(PROG.enumeration.are_equivalent, PROG.graphs.are_equivalent)
        self.assertIs(PROG.enumeration.are_equivalent, direct)

    def test_traced_run_and_missing_function(self):
        gone = (("hamcircle.graphs", "no_longer_there", "graphs.gone", None),)
        tracer = spans.Tracer()
        solve = catalog.Solve(instance("count_collide3"), Fraction(1), 1)
        with mock.patch.object(spans, "SPANS", spans.SPANS + gone):
            plain, traced = run.traced_pass(itertools.repeat([solve]), 0.0, PROG, PINS, EXPECTED, tracer)
        self.assertEqual(plain.failures + traced.failures, [])
        self.assertEqual(traced.rounds, run.MIN_SAMPLES)
        metrics, shares = spans.layer_metrics(tracer, traced.rounds)
        self.assertNotIn("graphs.gone", shares)
        self.assertEqual(metrics["cli.main.calls"][0], 1)
        self.assertEqual(metrics["formulas.oracle.applied_frac"][0], 1.0)
        self.assertGreater(metrics["enumeration.insert.calls"][0], 0)
        self.assertGreater(metrics["graphs.are_equivalent.calls"][0], 0)
        self.assertGreater(metrics["graphs.graph_key.calls"][0], 0)
        self.assertEqual(set(tracer.solve), set(range(run.MIN_SAMPLES)))


if __name__ == "__main__":
    unittest.main()
