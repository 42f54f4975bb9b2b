import random

import pytest

from ragharness.errors import HarnessError
from ragharness.pareto import (
    COST_AXES,
    ParetoPoint,
    dominates,
    pareto_front,
)


def oracle_front(points, axes):
    """Independent dominance filter written from the definition, pairwise."""
    front = []
    for i, p in enumerate(points):
        dominated = False
        for j, q in enumerate(points):
            if i == j:
                continue
            at_least_as_good = q.quality >= p.quality and all(
                q.costs[ax] <= p.costs[ax] for ax in axes
            )
            strictly_better = q.quality > p.quality or any(
                q.costs[ax] < p.costs[ax] for ax in axes
            )
            if at_least_as_good and strictly_better:
                dominated = True
                break
        if not dominated:
            front.append(p)
    return front


def random_points(rng, n, n_axes):
    axes = COST_AXES[:n_axes]
    points = []
    for i in range(n):
        costs = {ax: rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 1.0]) for ax in axes}
        points.append(
            ParetoPoint(
                config_id=f"p{i:03d}",
                quality=rng.choice([0.2, 0.4, 0.4, 0.6, 0.8]),
                costs=costs,
            )
        )
    return points, axes


def test_front_matches_oracle_on_random_sets():
    rng = random.Random(42)
    for trial in range(100):
        n = rng.randint(1, 200)
        n_axes = rng.randint(1, 4)
        points, axes = random_points(rng, n, n_axes)
        got = {id(p) for p in pareto_front(points, axes)}
        want = {id(p) for p in oracle_front(points, axes)}
        assert got == want


def test_front_points_mutually_non_dominating():
    rng = random.Random(8)
    points, axes = random_points(rng, 80, 2)
    front = pareto_front(points, axes)
    for p in front:
        for q in front:
            if p is not q:
                assert not dominates(p, q, axes) or not dominates(q, p, axes)
    # Every excluded point is dominated by some front member.
    excluded = [p for p in points if p not in front]
    for p in excluded:
        assert any(dominates(q, p, axes) for q in front)


def test_equal_points_both_stay_on_front():
    a = ParetoPoint("a", 0.6, {"latency": 0.5})
    b = ParetoPoint("b", 0.6, {"latency": 0.5})
    worse = ParetoPoint("c", 0.5, {"latency": 0.9})
    front = pareto_front([a, b, worse], ("latency",))
    assert [p.config_id for p in front] == ["a", "b"]
    assert not dominates(a, b, ("latency",))
    assert not dominates(b, a, ("latency",))


def test_dominates_requires_strictness():
    better = ParetoPoint("x", 0.7, {"latency": 0.4})
    worse = ParetoPoint("y", 0.6, {"latency": 0.4})
    assert dominates(better, worse, ("latency",))
    assert not dominates(worse, better, ("latency",))


def test_single_point_front():
    p = ParetoPoint("solo", 0.5, {"latency": 1.0})
    assert pareto_front([p], ("latency",)) == [p]


def test_front_sorted_by_primary_axis():
    points = [
        ParetoPoint("slow", 0.9, {"latency": 0.9}),
        ParetoPoint("fast", 0.5, {"latency": 0.2}),
        ParetoPoint("mid", 0.7, {"latency": 0.5}),
    ]
    front = pareto_front(points, ("latency",))
    assert [p.config_id for p in front] == ["fast", "mid", "slow"]


def test_errors():
    p = ParetoPoint("p", 0.5, {"latency": 1.0})
    with pytest.raises(HarnessError, match="points must be nonempty"):
        pareto_front([], ("latency",))
    with pytest.raises(HarnessError, match="at least one cost axis"):
        dominates(p, p, ())
    with pytest.raises(HarnessError, match="at least one cost axis"):
        pareto_front([p], ())
    with pytest.raises(HarnessError, match="^cost axis 'training_time' is absent$"):
        pareto_front([p], ("training_time",))
    with pytest.raises(HarnessError, match="^unknown cost axis 'bogus_axis'$"):
        pareto_front([p], ("bogus_axis",))
    with pytest.raises(HarnessError, match="^unknown cost axis 'bogus_axis'$"):
        ParetoPoint("p", 0.5, {"bogus_axis": 1.0})
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(HarnessError, match="^cost axis latency must be finite and >= 0$"):
            ParetoPoint("p", 0.5, {"latency": bad})
    with pytest.raises(HarnessError, match="quality must be finite"):
        ParetoPoint("p", float("nan"), {"latency": 1.0})


def test_an_axis_one_point_lacks_is_absent_for_the_whole_front():
    """The axis check runs once per front, over every point, so a point
    lacking an axis fails the front even where no dominance test reads it."""
    full = ParetoPoint("full", 0.9, {"latency": 0.1, "training_time": 1.0})
    partial = ParetoPoint("partial", 0.1, {"latency": 0.9})
    assert pareto_front([full, partial], ("latency",)) == [full]
    with pytest.raises(HarnessError, match="^cost axis 'training_time' is absent$"):
        pareto_front([full, partial], ("latency", "training_time"))
    with pytest.raises(HarnessError, match="^cost axis 'training_time' is absent$"):
        pareto_front([partial], ("training_time",))
