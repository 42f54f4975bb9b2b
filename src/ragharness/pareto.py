"""Dominance testing and Pareto-front extraction over quality/cost vectors.

Quality is maximized; every active cost axis is minimized. Equal points do
not dominate each other, so duplicates of a non-dominated point all stay on
the front.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite

from .errors import HarnessError

COST_AXES = ("latency", "inference_vram", "training_time", "training_vram")


class ParetoError(HarnessError):
    pass


@dataclass(frozen=True)
class CostVector:
    latency: float | None = None
    inference_vram: float | None = None
    training_time: float | None = None
    training_vram: float | None = None

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if val is not None and (not isfinite(val) or val < 0):
                raise ParetoError(f"cost axis {f.name} must be finite and >= 0")

    def get(self, axis: str) -> float:
        if axis not in COST_AXES:
            raise ParetoError(f"unknown cost axis {axis!r}")
        val = getattr(self, axis)
        if val is None:
            raise ParetoError(f"cost axis {axis!r} is absent")
        return val


@dataclass(frozen=True)
class ParetoPoint:
    config_id: str
    quality: float
    costs: CostVector
    regime_id: str = ""

    def __post_init__(self):
        if not isfinite(self.quality):
            raise ParetoError(f"quality must be finite, got {self.quality}")


def dominates(a: ParetoPoint, b: ParetoPoint, axes) -> bool:
    """True iff `a` is at least as good as `b` everywhere and strictly better
    somewhere (quality maximized, costs minimized)."""
    axes = tuple(axes)
    if not axes:
        raise ParetoError("at least one cost axis is required")
    strict = a.quality > b.quality
    if a.quality < b.quality:
        return False
    for axis in axes:
        ca, cb = a.costs.get(axis), b.costs.get(axis)
        if ca > cb:
            return False
        if ca < cb:
            strict = True
    return strict


def pareto_front(points: list[ParetoPoint], axes) -> list[ParetoPoint]:
    """All points not dominated by any other point, ordered by the primary
    (first) cost axis, then config_id."""
    if not points:
        raise ParetoError("points must be nonempty")
    axes = tuple(axes)
    front = [
        p
        for p in points
        if not any(dominates(q, p, axes) for q in points if q is not p)
    ]
    front.sort(key=lambda p: (p.costs.get(axes[0]), p.config_id))
    return front
