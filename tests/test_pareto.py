import random

from ragharness.pareto import COST_AXES, dominates, pareto_front


def oracle_front(points, axes):
    """Independent dominance filter written from the definition, pairwise."""
    front = []
    for i, (_, p_quality, p_costs) in enumerate(points):
        dominated = False
        for j, (_, q_quality, q_costs) in enumerate(points):
            if i == j:
                continue
            at_least_as_good = q_quality >= p_quality and all(
                q_costs[ax] <= p_costs[ax] for ax in axes
            )
            strictly_better = q_quality > p_quality or any(
                q_costs[ax] < p_costs[ax] for ax in axes
            )
            if at_least_as_good and strictly_better:
                dominated = True
                break
        if not dominated:
            front.append(points[i])
    return front


def random_points(rng, n, n_axes):
    axes = COST_AXES[:n_axes]
    points = []
    for i in range(n):
        costs = {ax: rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 1.0]) for ax in axes}
        points.append((f"p{i:03d}", rng.choice([0.2, 0.4, 0.4, 0.6, 0.8]), costs))
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
    a = ("a", 0.6, {"latency": 0.5})
    b = ("b", 0.6, {"latency": 0.5})
    worse = ("c", 0.5, {"latency": 0.9})
    front = pareto_front([a, b, worse], ("latency",))
    assert [config_id for config_id, _, _ in front] == ["a", "b"]
    assert not dominates(a, b, ("latency",))
    assert not dominates(b, a, ("latency",))


def test_dominates_requires_strictness():
    better = ("x", 0.7, {"latency": 0.4})
    worse = ("y", 0.6, {"latency": 0.4})
    assert dominates(better, worse, ("latency",))
    assert not dominates(worse, better, ("latency",))


def test_single_point_front():
    p = ("solo", 0.5, {"latency": 1.0})
    assert pareto_front([p], ("latency",)) == [p]


def test_front_ignores_the_axes_it_is_not_over():
    """A point may carry cost axes the front is not over, and others may
    lack them; only the front's axes are compared."""
    full = ("full", 0.9, {"latency": 0.1, "training_time": 1.0})
    partial = ("partial", 0.1, {"latency": 0.9})
    assert pareto_front([full, partial], ("latency",)) == [full]


def test_front_sorted_by_primary_axis():
    points = [
        ("slow", 0.9, {"latency": 0.9}),
        ("fast", 0.5, {"latency": 0.2}),
        ("mid", 0.7, {"latency": 0.5}),
    ]
    front = pareto_front(points, ("latency",))
    assert [config_id for config_id, _, _ in front] == ["fast", "mid", "slow"]

