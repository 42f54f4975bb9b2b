"""Dominance testing and Pareto-front extraction over quality/cost vectors.

Quality is maximized; every active cost axis is minimized. Equal points do
not dominate each other, so duplicates of a non-dominated point all stay on
the front.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import HarnessError

COST_AXES = ("latency", "inference_vram", "training_time", "training_vram")


@dataclass(frozen=True)
class ParetoPoint:
    config_id: str
    quality: float
    # cost axis -> value; an axis the point has no cost for is left out.
    costs: dict
    regime_id: str = ""

    def __post_init__(self):
        if not isfinite(self.quality):
            raise HarnessError(f"quality must be finite, got {self.quality}")
        for axis, val in self.costs.items():
            if axis not in COST_AXES:
                raise HarnessError(f"unknown cost axis {axis!r}")
            if not isfinite(val) or val < 0:
                raise HarnessError(f"cost axis {axis} must be finite and >= 0")


def dominates(a: ParetoPoint, b: ParetoPoint, axes) -> bool:
    """True iff `a` is at least as good as `b` everywhere and strictly better
    somewhere (quality maximized, costs minimized). Both points must carry
    every axis of `axes`, as `pareto_front` checks."""
    axes = tuple(axes)
    if not axes:
        raise HarnessError("at least one cost axis is required")
    strict = a.quality > b.quality
    if a.quality < b.quality:
        return False
    for axis in axes:
        ca, cb = a.costs[axis], b.costs[axis]
        if ca > cb:
            return False
        if ca < cb:
            strict = True
    return strict


def pareto_front(points: list[ParetoPoint], axes) -> list[ParetoPoint]:
    """All points not dominated by any other point, ordered by the primary
    (first) cost axis, then config_id. Each axis must be a known one that
    every point carries."""
    if not points:
        raise HarnessError("points must be nonempty")
    axes = tuple(axes)
    if not axes:
        raise HarnessError("at least one cost axis is required")
    for axis in axes:
        if axis not in COST_AXES:
            raise HarnessError(f"unknown cost axis {axis!r}")
        if any(axis not in p.costs for p in points):
            raise HarnessError(f"cost axis {axis!r} is absent")
    front = [
        p
        for p in points
        if not any(dominates(q, p, axes) for q in points if q is not p)
    ]
    front.sort(key=lambda p: (p.costs[axes[0]], p.config_id))
    return front
