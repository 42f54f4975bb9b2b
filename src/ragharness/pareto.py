"""Dominance testing and Pareto-front extraction over quality/cost vectors.

A point is a ``(config_id, quality, costs)`` tuple, where `costs` maps each
cost axis the point has to its value. Quality is maximized; every active cost
axis is minimized. Equal points do not dominate each other, so duplicates of
a non-dominated point all stay on the front. The caller checks the axes and
values: every point carries every active axis, each value finite and >= 0.
"""

from __future__ import annotations

COST_AXES = ("latency", "inference_vram", "training_time", "training_vram")


def dominates(a, b, axes) -> bool:
    """True iff point `a` is at least as good as point `b` everywhere and
    strictly better somewhere (quality maximized, costs minimized)."""
    _, qa, ca = a
    _, qb, cb = b
    if qa < qb:
        return False
    strict = qa > qb
    for axis in axes:
        if ca[axis] > cb[axis]:
            return False
        if ca[axis] < cb[axis]:
            strict = True
    return strict


def pareto_front(points: list, axes) -> list:
    """The points not dominated by any other point, ordered by the primary
    (first) cost axis, then config id."""
    front = [p for p in points if not any(dominates(q, p, axes) for q in points if q is not p)]
    front.sort(key=lambda p: (p[2][axes[0]], p[0]))
    return front
