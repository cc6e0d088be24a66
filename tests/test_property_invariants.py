"""Property-based invariant tests for the interval algebra.

Seeded random operation sequences are replayed against brute-force point
membership, so any divergence pinpoints the operation sequence that broke
an invariant.  Hypothesis drives the sequence generation (its
failures print the reproducing example); a fixed-seed torture loop backs it
up with longer sequences.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.intervals import (
    Interval,
    IntervalSet,
    influence_spans,
    influencing_intervals,
    merge_spans,
    normalize_intervals,
    point_in_spans,
    point_spans,
)

_INF = float("inf")


# ----------------------------------------------------------------------
# interval algebra vs brute-force membership
# ----------------------------------------------------------------------
_intervals = st.lists(
    st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
    max_size=8,
).map(lambda pairs: [Interval(min(a, b), max(a, b)) for a, b in pairs])


@settings(max_examples=80, deadline=None)
@given(intervals=_intervals, probes=st.lists(st.floats(-5, 105, allow_nan=False), max_size=20))
def test_normalize_preserves_membership(intervals, probes):
    normalized = normalize_intervals(intervals)
    # Sorted, pairwise disjoint (beyond merge tolerance).
    for first, second in zip(normalized, normalized[1:]):
        assert first.low <= second.low
        assert first.high < second.low
    # Membership is preserved at every probe strictly inside/outside.
    for probe in probes:
        naive = any(iv.contains(probe, tolerance=0.0) for iv in intervals)
        normalized_hit = any(iv.contains(probe, tolerance=0.0) for iv in normalized)
        if naive:
            assert normalized_hit  # merging never loses covered points
    union = IntervalSet(intervals)
    assert list(union) == normalize_intervals(intervals)


@settings(max_examples=100, deadline=None)
@given(
    weight=st.floats(0.5, 200, allow_nan=False),
    dist_start=st.one_of(st.floats(0, 300, allow_nan=False), st.just(_INF)),
    dist_end=st.one_of(st.floats(0, 300, allow_nan=False), st.just(_INF)),
    radius=st.one_of(st.floats(0, 400, allow_nan=False), st.just(_INF)),
    probes=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
)
def test_influence_spans_match_bruteforce_membership(
    weight, dist_start, dist_end, radius, probes
):
    """Spans contain exactly the offsets within *radius* of the query.

    The distance of offset t is ``min(dist_start + t, dist_end + w - t)``;
    probes landing within a small margin of the radius boundary are skipped
    (the implementation is allowed tolerance there).
    """
    spans = influence_spans(weight, dist_start, dist_end, radius)
    legacy = influencing_intervals(weight, dist_start, dist_end, radius)
    # Plain-tuple and IntervalSet variants agree on membership everywhere.
    for fraction in probes:
        offset = fraction * weight
        assert point_in_spans(spans, offset, tolerance=1e-9) == legacy.contains(
            offset, tolerance=1e-9
        )
        distance = min(
            dist_start + offset if dist_start != _INF else _INF,
            dist_end + (weight - offset) if dist_end != _INF else _INF,
        )
        margin = 1e-6 * max(1.0, weight, 0.0 if radius == _INF else radius)
        if radius == _INF:
            expected = distance != _INF
        elif abs(distance - radius) <= margin:
            continue  # boundary: tolerance region, either answer is fine
        else:
            expected = distance < radius
        assert point_in_spans(spans, offset, tolerance=0.0) == expected


@settings(max_examples=60, deadline=None)
@given(
    weight=st.floats(0.5, 100, allow_nan=False),
    query_fraction=st.floats(0, 1, allow_nan=False),
    radius=st.floats(0, 150, allow_nan=False),
    probes=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10),
)
def test_point_spans_match_direct_distance(weight, query_fraction, radius, probes):
    query_offset = query_fraction * weight
    spans = point_spans(weight, query_offset, radius)
    for fraction in probes:
        offset = fraction * weight
        distance = abs(offset - query_offset)
        if abs(distance - radius) <= 1e-9 * max(1.0, weight):
            continue
        assert point_in_spans(spans, offset, tolerance=0.0) == (distance < radius)


@settings(max_examples=60, deadline=None)
@given(
    first=_intervals,
    second=_intervals,
    probes=st.lists(st.floats(-5, 105, allow_nan=False), min_size=1, max_size=15),
)
def test_merge_spans_is_union(first, second, probes):
    spans_a = tuple((iv.low, iv.high) for iv in normalize_intervals(first))
    spans_b = tuple((iv.low, iv.high) for iv in normalize_intervals(second))
    merged = merge_spans(spans_a, spans_b)
    # Normalised: sorted and non-overlapping.
    for (low_a, high_a), (low_b, high_b) in zip(merged, merged[1:]):
        assert low_a <= low_b
        assert high_a < low_b
    for probe in probes:
        either = point_in_spans(spans_a, probe, tolerance=0.0) or point_in_spans(
            spans_b, probe, tolerance=0.0
        )
        if either:
            assert point_in_spans(merged, probe, tolerance=0.0)


def test_interval_set_seeded_torture():
    """Seeded random interval unions vs brute-force probe membership."""
    rng = random.Random(77)
    for _ in range(40):
        raw = []
        for _ in range(rng.randrange(1, 10)):
            a, b = sorted((rng.uniform(0, 50), rng.uniform(0, 50)))
            raw.append(Interval(a, b))
        split = rng.randrange(len(raw) + 1)
        combined = IntervalSet(raw[:split]).union(IntervalSet(raw[split:]))
        for _ in range(30):
            probe = rng.uniform(-1, 51)
            naive = any(iv.contains(probe) for iv in raw)
            assert combined.contains(probe) == naive
