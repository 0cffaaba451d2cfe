"""Tests of the benchmark's own arithmetic on hand-made inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import benchmath as bm  # noqa: E402


class TailTest(unittest.TestCase):
    def test_too_few_samples_for_any_percentile(self):
        # p50 of 19 samples is rank 10, leaving only 9 beyond it.
        self.assertEqual(bm.tail(list(range(19))), (None, None, 19))

    def test_twenty_samples_give_the_median(self):
        p, value, n = bm.tail(list(range(1, 21)))
        self.assertEqual((p, value, n), (50.0, 10, 20))

    def test_forty_samples_give_p75(self):
        # p75 of 40 is rank 30 with exactly 10 beyond; p90 leaves 4.
        p, value, n = bm.tail(list(range(1, 41)))
        self.assertEqual((p, value, n), (75.0, 30, 40))

    def test_thousand_samples_give_p99(self):
        # p99 leaves 10 of 1000 beyond; p99.9 would leave 1.
        p, value, n = bm.tail(list(range(1, 1001)))
        self.assertEqual((p, value, n), (99.0, 990, 1000))

    def test_order_of_input_does_not_matter(self):
        values = list(range(1, 101))
        self.assertEqual(bm.tail(values), bm.tail(values[::-1]))

    def test_rate_tail_comes_from_the_low_end(self):
        # For a rate, the bad tail is the slow end: 11 has ten lower
        # samples beyond it.
        p, value, n = bm.tail(list(range(1, 101)), higher_is_worse=False)
        self.assertEqual((p, value, n), (90.0, 11, 100))


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(bm.median([3, 1, 2]), 2)
        self.assertEqual(bm.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bm.median([])


class FailFracTest(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(bm.fail_frac(0, 24000), 0.0)
        self.assertEqual(bm.fail_frac(3, 12), 0.25)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            bm.fail_frac(0, 0)


class HostScaleTest(unittest.TestCase):
    def test_nominal_host_leaves_times_alone(self):
        nominal = bm.REFERENCE_NOMINAL_NS
        self.assertEqual(bm.host_scale([nominal] * 3, 2), [1.0, 1.0])

    def test_each_iteration_uses_the_passes_around_it(self):
        nominal = bm.REFERENCE_NOMINAL_NS
        scale = bm.host_scale([nominal, 3 * nominal, 2 * nominal], 2)
        self.assertEqual(scale, [0.5, 0.4])

    def test_slow_host_shrinks_times(self):
        # Twice the nominal reference time: a slow host, so a measured
        # 2 s counts as 1 s.
        slow = 2 * bm.REFERENCE_NOMINAL_NS
        self.assertEqual(2.0 * bm.host_scale([slow, slow], 1)[0], 1.0)

    def test_pass_count_must_match(self):
        with self.assertRaises(ValueError):
            bm.host_scale([1.0, 1.0], 2)


class Table1ErrTest(unittest.TestCase):
    def test_max_relative_error_in_percent(self):
        rows = [(18.41382, 18.6), (1.12512, 1.1), (3.045186652, 2.6),
                (2.60375332, 2.3)]
        # repeated-5 is the widest gap: 3.045/2.6 - 1 = 17.1 %.
        self.assertAlmostEqual(bm.table1_err_pct(rows), 17.1225635, places=5)

    def test_under_and_over_count_alike(self):
        self.assertAlmostEqual(bm.table1_err_pct([(0.8, 1.0), (1.1, 1.0)]),
                               20.0)


PROFILE = [
    {"path": "workload.run", "count": 1, "ns": 1000},
    {"path": "workload.run/dma.access", "count": 5, "ns": 40},
    {"path": "workload.run/machine.run", "count": 1, "ns": 800},
    {"path": "workload.run/machine.run/machine.step", "count": 90,
     "ns": 500},
    {"path": "workload.run/machine.run/machine.step/dma.access",
     "count": 30, "ns": 120},
    {"path": "workload.run/machine.run/machine.step/dma.access/"
             "dma.access", "count": 2, "ns": 10},
    {"path": "workload.run/machine.run/kernel.context_switch", "count": 4,
     "ns": 60},
]


class ProfileTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # machine.run 800 - (machine.step 500 + context_switch 60).
        self.assertEqual(bm.self_ns(PROFILE, "machine.run"), 240)
        # machine.step 500 - dma.access 120; the grandchild is inside it.
        self.assertEqual(bm.self_ns(PROFILE, "machine.step"), 380)

    def test_inclusive_counts_outermost_scopes_once(self):
        self.assertEqual(bm.inclusive_ns(PROFILE, "dma.access"), 160)
        self.assertEqual(bm.inclusive_ns(PROFILE, "dma.access",
                                         under="machine.run"), 120)
        self.assertEqual(bm.count(PROFILE, "dma.access"), 35)

    def test_missing_scope_is_zero(self):
        self.assertEqual(bm.inclusive_ns(PROFILE, "kernel.syscall"), 0)
        self.assertEqual(bm.self_ns(PROFILE, "kernel.syscall"), 0)


class AttributionTest(unittest.TestCase):
    def test_scenario_phases_close_on_the_wall(self):
        traced = {
            "wall_ns": 1000, "parse_ns": 10, "plan_ns": 5,
            "to_inspect_ns": [300, 200], "run_ns": [250, 150],
            "teardown_ns": [40, 30], "report_ns": 20, "setup_probe_ns": 0,
        }
        phases = bm.attribute(traced)
        self.assertEqual(phases["setup"], 10 + 5 + 50 + 50)
        self.assertEqual(phases["run"], 400)
        self.assertEqual(phases["teardown"], 70)
        self.assertEqual(phases["unattributed"], 1000 - 115 - 400 - 70 - 20)
        self.assertEqual(sum(phases.values()), traced["wall_ns"])

    def test_probe_setup_when_there_is_no_inspect_window(self):
        traced = {
            "wall_ns": 900, "parse_ns": 0, "plan_ns": 0,
            "to_inspect_ns": [], "run_ns": [100], "teardown_ns": [],
            "report_ns": 0, "setup_probe_ns": 700,
        }
        phases = bm.attribute(traced)
        self.assertEqual(phases["setup"], 700)
        self.assertEqual(phases["unattributed"], 100)
        self.assertEqual(sum(phases.values()), 900)

    def test_pool_merge_and_busy(self):
        pool = {"call_ns": 1000, "last_end_ns": 900, "busy_ns": 1620,
                "threads": 2}
        self.assertEqual(bm.merge_ns(pool, plan_ns=30), 70)
        self.assertAlmostEqual(bm.busy_frac(pool), 0.9)
        self.assertEqual(bm.merge_ns(pool, plan_ns=200), 0)


if __name__ == "__main__":
    unittest.main()
