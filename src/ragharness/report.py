"""Analytical artifacts: per-regime metric tables, ablation summaries,
scheme-win counts, top-k sensitivity rows, error-taxonomy counts, and
plot-ready front data."""

from __future__ import annotations

import csv
from collections import Counter, namedtuple
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import HarnessError
from .ingest import ERROR_CLASSES, ErrorLabel
from .pareto import pareto_front

# `stats` loads numpy, so it is imported only inside `regime_table`: error
# labels and the other tables load without it.
if TYPE_CHECKING:
    from .stats import ResamplePlan


_REGIME_COLUMNS = (
    "config n f1 f1_lo f1_hi em grnd_pass grnd_lo grnd_hi corr_pass corr_lo corr_hi "
    "latency inference_vram"
)


class RegimeRow(namedtuple("RegimeRow", _REGIME_COLUMNS, defaults=(0,) + (None,) * 12)):
    """One row of a regime table, its fields the columns of stats_<regime>.csv
    and regime_<regime>.csv in order. A pass rate and its interval ends are
    None when no record of the config is judged. Built by keyword alone,
    since a positional row would put its values under the wrong columns:
    config, f1 and latency are required, n defaults to 0 and every other
    cell to None."""

    __slots__ = ()

    def __new__(cls, *, config: str, f1: float, latency: float, **cells):
        return super().__new__(cls, config=config, f1=f1, latency=latency, **cells)


def regime_table(
    runs: dict,
    cost_profiles: dict,
    plan: ResamplePlan,
    pass_threshold: int = 4,
) -> list[RegimeRow]:
    """One row per config of one regime, in the order of `runs`, which maps
    config_id -> scored `ingest.Run` as `RunSet.runs` holds each regime's
    runs (ascending config id). Every sum runs in record order. A pass rate
    is the mean of its 0/1 flags, each partial sum an integer, so it equals
    the count of passes over n."""
    from .stats import bootstrap_ci

    rows: list[RegimeRow] = []
    for config_id, run in runs.items():
        n = len(run)
        grnd = [1.0 if g >= pass_threshold else 0.0 for g in run.groundedness if g is not None]
        judged = {}
        if grnd:
            corr = [1.0 if c >= pass_threshold else 0.0 for c in run.correctness if c is not None]
            grnd_ci, corr_ci = bootstrap_ci(grnd, plan), bootstrap_ci(corr, plan)
            judged = dict(
                grnd_pass=sum(grnd) / len(grnd), grnd_lo=grnd_ci.lo, grnd_hi=grnd_ci.hi,
                corr_pass=sum(corr) / len(corr), corr_lo=corr_ci.lo, corr_hi=corr_ci.hi,
            )
        f1_ci = bootstrap_ci(run.f1s, plan)
        profile = cost_profiles.get(config_id)
        rows.append(
            RegimeRow(
                config=config_id,
                n=n,
                f1=sum(run.f1s) / n,
                f1_lo=f1_ci.lo,
                f1_hi=f1_ci.hi,
                em=sum(run.exact) / n,
                **judged,
                latency=sum(run.latencies) / n,
                inference_vram=profile.inference_vram_for(run.regime_id) if profile else None,
            )
        )
    return rows


def _best(rows: list[RegimeRow], key) -> RegimeRow:
    # Point-estimate winner; ties broken by ascending config id.
    return min(rows, key=lambda r: (-key(r), r.config))


def ablation_summary(tables: dict) -> list[list]:
    """The rows of `ablation_summary.csv`, one per regime in id order: [regime,
    best_f1_config, best_f1, best_grnd_config, best_grnd, same_point], the
    best-F1 and best-groundedness configs by point estimate, the grnd cells
    None when no config of the regime has judge scores. `tables` maps regime
    id -> nonempty list of RegimeRow. Row order within a table does not
    matter."""
    summary = []
    for regime_id in sorted(tables):
        rows = tables[regime_id]
        best_f1 = _best(rows, lambda r: r.f1)
        judged = [r for r in rows if r.grnd_pass is not None]
        best_grnd = _best(judged, lambda r: r.grnd_pass) if judged else None
        grnd_config = best_grnd.config if best_grnd else None
        summary.append([
            regime_id, best_f1.config, best_f1.f1,
            grnd_config, best_grnd.grnd_pass if best_grnd else None,
            int(best_f1.config == grnd_config),
        ])
    return summary


def scheme_wins(summary: list[list]) -> dict:
    """Counts of regimes won by each scheme, per criterion. The grnd column
    is absent (None) when no regime had judge scores."""
    # Imported here: the pareto command imports this module but reads no id.
    from .lora_grid import parse_config_id

    f1_wins: Counter = Counter()
    grnd_wins: Counter = Counter()
    any_grnd = False
    for _, best_f1_config, _, best_grnd_config, *_ in summary:
        # A parsed id is (base, scheme, rank).
        f1_wins[parse_config_id(best_f1_config)[1]] += 1
        if best_grnd_config is not None:
            any_grnd = True
            grnd_wins[parse_config_id(best_grnd_config)[1]] += 1
    return {"f1": dict(f1_wins), "grnd": dict(grnd_wins) if any_grnd else None}


def topk_summary(tables_by_k: dict) -> list[list]:
    """The rows of `topk_summary.csv`, one per k in ascending order: [k,
    best_config, best_f1, latency, front], the front being the config ids of
    the runtime (F1, latency) front, sorted and joined by ';'. `tables_by_k`
    maps eval_top_k -> nonempty list of RegimeRow."""
    rows = []
    for k in sorted(tables_by_k):
        table = tables_by_k[k]
        best = _best(table, lambda r: r.f1)
        points = [(r.config, r.f1, {"latency": r.latency}) for r in table]
        front = pareto_front(points, axes=("latency",))
        rows.append([
            k, best.config, best.f1, best.latency,
            ";".join(sorted(config_id for config_id, _, _ in front)),
        ])
    return rows


def error_counts(labels: list[ErrorLabel]) -> dict:
    """Counts per (config, class) plus totals, with percentages of each
    column's n (one decimal), over the nonempty list `ingest.load_labels`
    returns."""
    per_config: dict[str, Counter] = {}
    for label in labels:
        per_config.setdefault(label.config_id, Counter())[label.error_class] += 1
    totals = Counter(label.error_class for label in labels)

    def column(counter: Counter) -> dict:
        n = sum(counter.values())
        return {
            cls: {"count": counter[cls], "pct": round(100.0 * counter[cls] / n, 1)}
            for cls in ERROR_CLASSES
        }

    return {
        "per_config": {cid: column(cnt) for cid, cnt in sorted(per_config.items())},
        "total": column(totals),
        "n": len(labels),
    }


def write_csv(path, header, rows) -> None:
    """Write one CSV table under `path`, creating its directory: UTF-8, LF
    line ends, a float cell to 6 significant digits, a None cell empty, and
    any other cell as `csv` writes it. Every CSV file the harness writes goes
    through here, so reruns with unchanged inputs give identical bytes. A file
    the system cannot write is a HarnessError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_cell(value) for value in row] for row in rows)
    except OSError as exc:
        raise HarnessError(f"cannot write {path}: {exc.strerror}") from exc


def write_regime_table(path, rows: list[RegimeRow]) -> None:
    """Write a regime table as stats_<regime>.csv and regime_<regime>.csv
    hold it: one column per RegimeRow field, in field order."""
    write_csv(path, RegimeRow._fields, rows)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def emit_front_data(regime_id: str, points: list, front: list, destination, axes) -> None:
    """Write plot-ready comma-separated rows {config, regime, quality, active
    cost axes, on_front} of one regime's Pareto points, sorted by config id,
    which is unique within a regime; column order fixed."""
    on_front = {config_id for config_id, _, _ in front}
    write_csv(
        destination,
        ["config", "regime", "quality", *axes, "on_front"],
        (
            [config_id, regime_id, quality, *(costs[ax] for ax in axes), int(config_id in on_front)]
            for config_id, quality, costs in sorted(points, key=lambda p: p[0])
        ),
    )


def format_regime_table(
    rows: list[RegimeRow], level: float = 0.95, pass_threshold: int = 4
) -> str:
    """Human-readable aligned text form of a regime table. `level` and
    `pass_threshold` label the interval and pass-rate columns."""

    def fmt_iv(lo: float | None, hi: float | None) -> str:
        return "-" if lo is None else f"[{lo:.3f}, {hi:.3f}]"

    header = [
        "config", "F1", f"F1 {level * 100:g}% CI",
        f"grnd@{pass_threshold}", f"corr@{pass_threshold}", "lat (s)", "VRAM (GB)",
    ]
    body = []
    for r in rows:
        body.append(
            [
                r.config,
                f"{r.f1:.3f}",
                fmt_iv(r.f1_lo, r.f1_hi),
                "-" if r.grnd_pass is None else f"{r.grnd_pass:.3f}",
                "-" if r.corr_pass is None else f"{r.corr_pass:.3f}",
                f"{r.latency:.3f}",
                "-" if r.inference_vram is None else f"{r.inference_vram:.3f}",
            ]
        )
    widths = [max(len(row[i]) for row in [header, *body]) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [header, *body]]
    return "\n".join(lines) + "\n"
