"""Arithmetic of the served-query benchmark: percentiles, span self time,
run-to-run spread and the comparison verdicts. Pure functions, no I/O, so
test_stats.py can check them on synthetic inputs."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it; fewer and a single outlier moves it.
MIN_BEYOND = 10

# Pairs a gain claim needs, and the share of them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def rank(n, p):
    """1-based nearest rank of percentile `p` (0-100] among `n` samples."""
    # Rounded first so that 99.9% of 10 000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(n, p):
    """How many of `n` samples lie above the nearest-rank percentile `p`."""
    return n - rank(n, p)


def percentile(values, p):
    """Nearest-rank percentile `p` of `values` (unsorted is fine)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    return xs[rank(len(xs), p) - 1]


def highest_supported(n, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it among `n` samples, or None when even the lowest has fewer."""
    for p in sorted(candidates, reverse=True):
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median. Needs at least two values."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def union_length(intervals, lo, hi):
    """Length of the union of `intervals` (start, end) clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children count once).

    `spans` is a list of (parent_index or -1, start, end); the result is a
    list of self times in the same order."""
    children = [[] for _ in spans]
    for i, (parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered = union_length(
            [(spans[c][1], spans[c][2]) for c in children[i]], start, end)
        out.append((end - start) - covered)
    return out


def verdict(base, new, bound, better):
    """Compares two sets of runs of one metric on one workload.

    `base` and `new` are per-run values in run order (pair i is base[i],
    new[i]); `bound` is the share of the base median by which the metric
    may worsen; `better` is "lower" or "higher". Returns one of "better",
    "worse", "within bound" or "unresolved":

    * unresolved - either side's quartile spread exceeds the bound, unless
      there are at least 10 pairs and every new run beats every base run;
    * better - over at least 10 pairs, the new side wins at least 9 of 10
      pairs (ties count for neither) and the medians differ by more than
      the base runs' own quartile distance; or, when a spread exceeds the
      bound, every new run beats every base run;
    * worse - the new median is worse than the base median by more than the
      bound;
    * within bound - anything else.
    """
    sign = -1.0 if better == "lower" else 1.0

    def gain(a, b):  # > 0 when b is better than a
        return sign * (b - a)

    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    pairs = list(zip(base, new))
    if spread(base) > bound or spread(new) > bound:
        if (len(pairs) >= MIN_PAIRS
                and all(gain(b, n) > 0 for b in base for n in new)):
            return "better"
        return "unresolved"
    wins = sum(1 for b, n in pairs if gain(b, n) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain(bm, nm) > (b3 - b1)):
        return "better"
    if -gain(bm, nm) > bound * abs(bm):
        return "worse"
    return "within bound"
