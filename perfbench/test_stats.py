"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 99), 99)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile(list(reversed(xs)), 90), 90)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 9)    # rank ceil(989.01) = 990
        self.assertEqual(stats.beyond(10_000, 99.9), 10)
        self.assertEqual(stats.beyond(100, 50), 50)

    def test_highest_supported(self):
        # p99.9 needs 10 000 samples, p99 1 000, p90 100.
        self.assertEqual(stats.highest_supported(10_000), 99.9)
        self.assertEqual(stats.highest_supported(9_999), 99.0)
        self.assertEqual(stats.highest_supported(1_000), 99.0)
        self.assertEqual(stats.highest_supported(999), 95.0)
        self.assertEqual(stats.highest_supported(100), 90.0)
        self.assertEqual(stats.highest_supported(40), 75.0)
        self.assertEqual(stats.highest_supported(20), 50.0)
        self.assertIsNone(stats.highest_supported(19))
        self.assertEqual(stats.highest_supported(500, candidates=(99, 50)), 50)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([(-1, 0.0, 5.0)]), [5.0])

    def test_disjoint_children(self):
        spans = [(-1, 0.0, 10.0), (0, 1.0, 3.0), (0, 5.0, 9.0)]
        self.assertEqual(stats.self_times(spans), [4.0, 2.0, 4.0])

    def test_overlapping_children_count_once(self):
        # Children cover [1, 6] and [4, 8]: the union is [1, 8].
        spans = [(-1, 0.0, 10.0), (0, 1.0, 6.0), (0, 4.0, 8.0)]
        self.assertEqual(stats.self_times(spans)[0], 3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(-1, 2.0, 6.0), (0, 0.0, 3.0), (0, 5.0, 9.0)]
        self.assertEqual(stats.self_times(spans)[0], 2.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [(-1, 0.0, 10.0), (0, 2.0, 8.0), (1, 3.0, 5.0)]
        self.assertEqual(stats.self_times(spans), [4.0, 4.0, 2.0])

    def test_nested_and_contained_children(self):
        spans = [(-1, 0.0, 10.0), (0, 1.0, 9.0), (0, 2.0, 3.0)]
        self.assertEqual(stats.self_times(spans)[0], 2.0)


class VerdictTest(unittest.TestCase):
    BASE = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain_on_a_lower_is_better_metric(self):
        new = [v - 20 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "lower"), "better")

    def test_clear_gain_on_a_higher_is_better_metric(self):
        new = [v + 20 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "higher"), "better")

    def test_regression_beyond_the_bound(self):
        new = [v * 1.2 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "lower"), "worse")
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "higher"), "better")

    def test_small_change_is_within_bound(self):
        new = [v * 1.05 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "lower"),
                         "within bound")

    def test_gain_needs_nine_of_ten_pairs(self):
        # Medians differ by 5, base quartile distance is 2, but the change
        # wins only 8 of 10 pairs.
        new = [v - 5 for v in self.BASE]
        new[0] = self.BASE[0] + 1
        new[1] = self.BASE[1] + 1
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "lower"),
                         "within bound")
        new[1] = self.BASE[1] - 5
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "lower"), "better")

    def test_ties_count_for_neither_side(self):
        new = list(self.BASE)
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "lower"),
                         "within bound")

    def test_gain_needs_medians_apart_by_more_than_the_base_spread(self):
        # Every pair wins by 1, less than the base quartile distance (2).
        new = [v - 1 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, new, 0.1, "lower"),
                         "within bound")

    def test_gain_needs_ten_pairs(self):
        base, new = self.BASE[:5], [v - 20 for v in self.BASE[:5]]
        self.assertEqual(stats.verdict(base, new, 0.1, "lower"), "within bound")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(stats.verdict(noisy, noisy, 0.1, "lower"), "unresolved")
        worse = [v * 1.5 for v in noisy]
        self.assertEqual(stats.verdict(noisy, worse, 0.1, "lower"), "unresolved")

    def test_noisy_but_every_new_run_better(self):
        noisy = [60.0, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        new = [v / 10 for v in noisy]
        self.assertEqual(stats.verdict(noisy, new, 0.1, "lower"), "better")

    def test_noisy_gain_still_needs_ten_pairs(self):
        noisy = [60.0, 140, 100]
        new = [v / 10 for v in noisy]
        self.assertEqual(stats.verdict(noisy, new, 0.1, "lower"), "unresolved")


class SpreadTest(unittest.TestCase):
    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
