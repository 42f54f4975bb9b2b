"""Extract quality/cost Pareto fronts from a small configuration sweep and
print which points survive on each cost axis.

Run: python3 demos/pareto_front_demo.py
"""

from ragharness.pareto import pareto_front

SWEEP = [
    # (config, F1, latency s, training minutes)
    ("small r4", 0.572, 0.63, 53.0),
    ("small r16", 0.583, 0.65, 55.9),
    ("small r64", 0.597, 0.60, 53.3),
    ("large r4", 0.610, 0.69, 68.6),
    ("large r16", 0.615, 0.69, 68.4),
    ("large r64", 0.617, 0.66, 68.9),
    ("large baseline", 0.595, 0.76, 0.0),
]


def main():
    points = [
        (name, f1, {"latency": lat, "training_time": train}) for name, f1, lat, train in SWEEP
    ]

    for axes in (("latency",), ("training_time",), ("latency", "training_time")):
        front = pareto_front(points, axes)
        print(f"front on {' + '.join(axes)}:")
        for name, f1, costs in front:
            shown = ", ".join(f"{ax}={costs[ax]:.3g}" for ax in axes)
            print(f"  {name:<16} F1={f1:.3f}  {shown}")
        print()


if __name__ == "__main__":
    main()
