"""Statistics the benchmark reports: percentiles, span self times, op tallies.

Kept free of mvring imports so it can be tested on its own.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # a percentile needs this many samples above it to be a tail


def nearest_rank(samples, q):
    """Nearest-rank q-th percentile and how many samples lie above its rank."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, q):
    """The q-th percentile, or None when fewer than MIN_BEYOND samples exceed it."""
    value, beyond = nearest_rank(samples, q)
    return value if beyond >= MIN_BEYOND else None


def median(samples):
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def covered(interval, children):
    """Length of `interval` covered by the union of the `children` intervals.

    Children are clipped to the interval first, so a child running past its
    parent's end (or starting before it) only counts where they overlap;
    overlapping children count once.
    """
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
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
    """Self time of each span: its duration minus what its child spans cover.

    `spans` is a sequence of (start, end, parent_index) with parent_index -1
    for a root. Returns a list aligned with `spans`.
    """
    children = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered((start, end), children[i])
            for i, (start, end, _) in enumerate(spans)]


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, succeeded):
        self.attempted += 1
        if not succeeded:
            self.failed += 1

    def check(self, timed):
        """Raise unless the `timed` operations and the failures make up every attempt."""
        if not 0 <= self.failed <= self.attempted or \
                timed + self.failed != self.attempted:
            raise ValueError(f"{self.attempted} attempted != {timed} timed + "
                             f"{self.failed} failed")
