"""Command-line surface orchestrating the harness over a workspace directory.

Subcommands: validate, retrieve, score, stats, pareto, report, grid. The
workspace root comes from --workspace, the RAGHARNESS_WORKSPACE environment
variable, or the current directory, and holds a ``workspace.json`` config.
All outputs are deterministic for a fixed seed: re-running a subcommand with
unchanged inputs rewrites byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import HarnessError

# Each command imports only what it uses, since at the sizes workspaces
# usually have, start-up costs more than the work:
# - numpy loads with `stats` and the retrieval scorers, so each is imported
#   only where arrays are built: in `retrieve` (the index, the scorers and
#   the embedding table) and in the bootstrap behind stats, pareto and
#   report. grid, score and validate never load numpy; validate checks the
#   embeddings and the error labels as plain JSON.
# - OpenSSL's libcrypto loads with hashlib, which `ingest` imports only to
#   verify a run manifest, so validate, score, stats, pareto and report load
#   it for the manifest alone, and retrieve and grid never do. The bootstrap
#   draws its resample indices with numpy's core arithmetic: no command
#   imports numpy's random module, which would load libcrypto too.
# - Every package module but `errors` is imported only where it is used;
#   all but `metrics`, `lora_grid` and `pareto` build dataclasses on
#   import. The workspace commands import `analysis`, which holds the
#   workspace config, the loaders and the param-matched alignment, and
#   imports `dataset`, `ingest` and `retrieval`, since each regime spec
#   names a key of `retrieval.VARIANTS`. grid reads no workspace: it loads
#   `lora_grid` alone, and none of those four. Of `metrics`, `report`,
#   `pareto` and `lora_grid`, validate loads `lora_grid` alone, which reads
#   every config id and pairs the param-matched configs, and score loads
#   `metrics` alone.
if TYPE_CHECKING:
    from pathlib import Path

    from .analysis import WorkspaceConfig


def _write_text(path: Path, chunks) -> None:
    """Write the strings of `chunks` to `path` as UTF-8 with LF line ends,
    creating its directory; every non-CSV output goes through here. A file
    the system cannot write is a HarnessError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise HarnessError(f"cannot write {path}: {exc.strerror}") from exc


def _write_json(path: Path, payload) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def _write_jsonl(path: Path, rows) -> None:
    """One JSON object per line, keys sorted; `rows` may be a generator. One
    encoder serves the whole file: `json.dumps` with `sort_keys` would build
    a new one per row."""
    encode = json.JSONEncoder(sort_keys=True).encode
    _write_text(path, (encode(row) + "\n" for row in rows))


def cmd_validate(ws: WorkspaceConfig, args) -> int:
    """Read every part of an unscored analysis, with the checks of the
    commands that read it, and stop at the first fault; nothing is scored
    and numpy is not loaded."""
    from . import analysis, dataset

    an = analysis.Analysis(ws, scored=False)
    chunks, pairs = an.chunks, an.pairs
    bad = dataset.check_supporting_ids(pairs, chunks)
    if bad:
        raise HarnessError(f"unresolved supporting_chunk_ids for: {bad[:5]}")
    run_set = an.run_set
    analysis._check_regime_ids(
        ws, [*(regime_id for regime_id, _ in ws.regimes), *(run_set.runs if run_set else ())]
    )
    # As stats does, `matched` checks that every config id parses and that
    # each pair covers the same qa_ids.
    for part in ("matched", "costs", "embeddings", "rerank", "labels"):
        getattr(an, part)
    print(f"validate: ok ({len(chunks)} chunks, {len(pairs)} QA rows, test={len(an.gold)})")
    if run_set is not None:
        unscored = sum(
            run.groundedness.count(None) for runs in run_set.runs.values() for run in runs.values()
        )
        print(
            f"validate: judge coverage: {run_set.unmatched_scores} judge rows "
            f"match no record, {unscored} of {run_set.n_records()} records "
            f"have no judge score"
        )
    return 0


def cmd_retrieve(ws: WorkspaceConfig, args) -> int:
    from . import analysis, retrieval

    # validate's checks of the output names and the channels run before
    # anything is written.
    analysis._check_regime_ids(ws, [regime_id for regime_id, _ in ws.regimes])
    variants = [variant for _, variant in ws.regimes]
    fused = {name for v in variants for name in retrieval.VARIANTS[v][0]}
    an = analysis.Analysis(ws)
    chunks = an.chunks.values()
    test_pairs = [an.pairs[qa_id] for qa_id in an.gold]
    questions = [p.question for p in test_pairs]
    index = retrieval.build_sparse_index(chunks, questions) if "sparse" in fused else None
    # Read after the index is built, so that the vectors' lists and the
    # index's build never take memory at the same time.
    table, queries = None, {}
    if an.embeddings is not None:
        dim, vectors, queries = an.embeddings
        table = retrieval.EmbeddingTable(vectors=vectors, dim=dim)
        # The table holds its own copy of the chunk vectors: their lists go,
        # from the cache too, and the query vectors stay.
        del vectors, an.embeddings
    rerank = an.rerank

    # Each question's channels are scored once and its fusion run once for
    # every regime; only each regime's eval_top_k ids are kept. A question
    # has a query vector only when there is a table.
    contexts = [[] for _ in variants]
    for pair in test_pairs:
        sparse = dense = None
        if index is not None:
            sparse = retrieval.score_sparse(index, pair.question, ws.retrieve_top_n)
        if "dense" in fused and pair.qa_id in queries:
            dense = retrieval.score_dense(table, queries[pair.qa_id], ws.retrieve_top_n)
        selected = retrieval.select_contexts(
            variants, dense, sparse, rerank.get(pair.qa_id),
            retrieve_top_n=ws.retrieve_top_n, eval_top_k=ws.eval_top_k, k_rrf=ws.k_rrf,
        )
        for kept, context in zip(contexts, selected):
            kept.append(context)

    # The sparse channel is always there; the dense one and the rerank
    # scores only for the questions their files cover. A regime fusing two
    # channels fuses both, so every dense list is fused when one is.
    no_dense = sum(1 for p in test_pairs if p.qa_id not in queries)
    n_sparse = len(test_pairs) if index is not None else 0
    n_dense = len(test_pairs) - no_dense if "dense" in fused else 0
    n_fusions = n_dense if any(len(retrieval.VARIANTS[v][0]) > 1 for v in variants) else 0
    unranked = sum(1 for p in test_pairs if not rerank.get(p.qa_id))
    for (regime_id, variant), kept in zip(ws.regimes, contexts):
        channels, reranks = retrieval.VARIANTS[variant]
        out_path = ws.out / analysis._regime_file("contexts", regime_id)
        _write_jsonl(
            out_path,
            (
                {"qa_id": pair.qa_id, "regime": regime_id, "context_ids": context}
                for pair, context in zip(test_pairs, kept)
            ),
        )
        print(f"retrieve: wrote {out_path}")
        print(
            f"retrieve: {regime_id}: of {len(test_pairs)} test questions, "
            f"{no_dense if 'dense' in channels else 0} ran with fewer channels than "
            f"{variant!r} names and {unranked if reranks else 0} without the rerank "
            f"scores it names"
        )
    print(
        f"retrieve: scored {n_sparse} sparse and {n_dense} dense lists and ran "
        f"{n_fusions} fusions for {len(test_pairs)} test questions"
    )
    return 0


def _score_lines(run_set):
    """The lines of scores.jsonl of a scored run set, sorted by (regime,
    config, qa_id). Each is the line `_write_jsonl` would write for {config,
    regime, qa_id, f1 rounded to 6 places, em as 0/1, latency_s}, built from
    the columns with the primitives `json` encodes strings and finite floats
    with, keys in sorted order."""
    from .analysis import _by_qa_id

    quote = json.encoder.encode_basestring_ascii
    for runs in run_set.runs.values():
        for run in runs.values():
            head = f'{{"config": {quote(run.config_id)}, "em": '
            tail = f', "regime": {quote(run.regime_id)}}}\n'
            for i in _by_qa_id(run):
                yield (
                    f'{head}{int(run.exact[i])}, "f1": {round(run.f1s[i], 6)!r}, '
                    f'"latency_s": {run.latencies[i]!r}, "qa_id": {quote(run.qa_ids[i])}{tail}'
                )


def cmd_score(ws: WorkspaceConfig, args) -> int:
    from . import analysis

    # scores.jsonl has no judge column, so the judge scores are not read.
    run_set = analysis.Analysis(ws, judged=False).run_set
    out_path = ws.out / "scores.jsonl"
    _write_text(out_path, _score_lines(run_set))
    print(f"score: wrote {out_path} ({run_set.n_records()} records)")
    return 0


def cmd_stats(ws: WorkspaceConfig, args) -> int:
    from . import analysis, report

    an = analysis.Analysis(ws)
    tables, matched = an.tables, an.matched
    # Imported once the run set is loaded: numpy imported first raised the
    # peak RSS of stats by 0.9 MB on the ragged_coverage benchmark workload.
    from .stats import paired_bootstrap_delta, pooled_pair_delta

    # Every delta is worked out before the first file is written.
    plan, deltas = ws.plan(), []
    for regime_id, pairs in matched.items():
        vectors = []
        for budget, a, b, a_order, b_order in pairs:
            vectors.append(([a.f1s[i] for i in a_order], [b.f1s[i] for i in b_order]))
            est = paired_bootstrap_delta(*vectors[-1], plan)
            deltas.append([regime_id, budget, a.config_id, b.config_id, est])
        if len(vectors) > 1:
            deltas.append([regime_id, "pooled", "", "", pooled_pair_delta(vectors, plan)])
    for regime_id, rows in tables.items():
        report.write_regime_table(ws.out / analysis._regime_file("stats", regime_id), rows)
    if matched:
        report.write_csv(
            ws.out / "param_matched.csv",
            ["regime", "budget", "qv_config", "full_config",
             "delta_f1", "lo", "hi", "significant"],
            (
                [*labels, est.delta, est.interval.lo, est.interval.hi, int(est.significant)]
                for *labels, est in deltas
            ),
        )
    print(f"stats: wrote {len(tables)} regime tables under {ws.out}")
    return 0


def cmd_pareto(ws: WorkspaceConfig, args) -> int:
    from . import analysis, report
    from .pareto import COST_AXES, pareto_front

    axes = tuple(args.axes.split(","))
    for i, axis in enumerate(axes):
        if axis not in COST_AXES:
            raise HarnessError(f"unknown cost axis {axis!r}")
        if axis in axes[:i]:
            raise HarnessError(f"repeated cost axis {axis!r}")
    an = analysis.Analysis(ws)
    tables, costs = an.tables, an.costs
    regime_ids = list(tables) if args.regime is None else [args.regime]
    if args.regime is not None and args.regime not in tables:
        raise HarnessError(f"regime {args.regime!r} not in run set")
    # Every front's name is checked, and every front worked out, before the
    # first file is written.
    analysis._check_regime_ids(ws, regime_ids, axes)
    fronts = []
    for regime_id in regime_ids:
        rows = tables[regime_id]
        points = []
        for r in rows:
            profile = costs.get(r.config)
            cost = {
                "latency": r.latency,
                "inference_vram": r.inference_vram,
                "training_time": profile.training_time if profile else None,
                "training_vram": profile.training_vram if profile else None,
            }
            cost = {axis: val for axis, val in cost.items() if val is not None}
            absent = [axis for axis in axes if axis not in cost]
            if absent:
                raise HarnessError(
                    f"regime {regime_id!r}: config {r.config!r} has no {absent[0]!r} cost"
                )
            points.append((r.config, r.f1, cost))
        fronts.append((regime_id, points, pareto_front(points, axes)))
    for regime_id, points, front in fronts:
        out_path = ws.out / analysis._regime_file("front", regime_id, axes)
        report.emit_front_data(regime_id, points, front, out_path, axes)
        print(f"pareto: wrote {out_path} ({len(front)} on front)")
    return 0


def cmd_report(ws: WorkspaceConfig, args) -> int:
    from . import analysis, report

    an = analysis.Analysis(ws)
    # Whatever can reject the inputs (a config id without a scheme, a label
    # that matches no record) fails here, before any file is written.
    tables, labels = an.tables, an.labels
    summary = report.ablation_summary(tables)
    wins = report.scheme_wins(summary)
    error_counts = report.error_counts(labels) if labels is not None else None
    for regime_id, rows in tables.items():
        report.write_regime_table(ws.out / analysis._regime_file("regime_csv", regime_id), rows)
        text = report.format_regime_table(rows, ws.level, ws.pass_threshold)
        _write_text(ws.out / analysis._regime_file("regime_txt", regime_id), [text])
    report.write_csv(
        ws.out / "ablation_summary.csv",
        ["regime", "best_f1_config", "best_f1",
         "best_grnd_config", "best_grnd", "same_point"],
        summary,
    )
    _write_json(ws.out / "scheme_wins.json", wins)
    k_tables = {}
    for regime_id, rows in tables.items():
        for row in rows:
            k = an.run_set.runs[regime_id][row.config].eval_top_k
            k_tables.setdefault(k, []).append(row)
    if len(k_tables) >= 2:
        report.write_csv(
            ws.out / "topk_summary.csv",
            ["k", "best_config", "best_f1", "latency", "front"],
            report.topk_summary(k_tables),
        )
    if error_counts is not None:
        _write_json(ws.out / "error_counts.json", error_counts)
    print(f"report: wrote tables for {len(tables)} regimes under {ws.out}")
    return 0


def _ascii_int(text: str) -> int:
    """The integer that `text` writes in ASCII digits, spaces around it
    allowed; int() alone would also take "1_6", "+4" and other scripts'
    digits. ValueError otherwise, or past int()'s 4,300 digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)


def cmd_grid(ws, args) -> int:
    from . import lora_grid

    bases = tuple(args.bases.split(","))
    try:
        ranks = tuple(_ascii_int(r) for r in args.ranks.split(","))
    except ValueError as exc:
        raise HarnessError(f"--ranks must be integers, got {args.ranks!r}") from exc
    grid = lora_grid.enumerate_grid(bases, ranks)
    config_ids = [lora_grid.display_id(*config) for config in grid]
    width = max(len("base"), *map(len, bases)) + 2
    print(f"{'base':<{width}}scheme          rank  alpha config")
    for (base, scheme, rank), config_id in zip(grid, config_ids):
        # alpha, the LoRA scaling, is tied to 2 * rank; a baseline has neither.
        rank, alpha = ("", "") if rank is None else (rank, 2 * rank)
        print(f"{base:<{width}}{scheme:<16}{rank!s:<6}{alpha!s:<6}{config_id}")
    pairs = lora_grid.param_matched_pairs(config_ids)
    print(f"\nparam-matched pairs ({len(pairs)}):")
    for budget, qv_id, full_id in pairs:
        print(f"  {budget:<6}{qv_id}  <->  {full_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragharness",
        description="Multi-objective evaluation harness for documentation-grounded RAG runs.",
    )
    parser.add_argument(
        "--workspace",
        default=None,
        help="workspace root (default: $RAGHARNESS_WORKSPACE or the current directory)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="check dataset and run-set schemas")
    sub.add_parser("retrieve", help="materialize contexts per regime")
    sub.add_parser("score", help="compute per-example metrics")
    sub.add_parser("stats", help="compute intervals and param-matched deltas")
    p_pareto = sub.add_parser("pareto", help="emit Pareto fronts")
    p_pareto.add_argument("--regime", default=None)
    p_pareto.add_argument("--axes", default="latency", help="comma-separated cost axes")
    sub.add_parser("report", help="emit all report tables")
    p_grid = sub.add_parser("grid", help="print the configuration grid and pairs")
    p_grid.add_argument("--ranks", default="4,8,16,32,64")
    p_grid.add_argument("--bases", default="3B,8B")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "retrieve": cmd_retrieve,
    "score": cmd_score,
    "stats": cmd_stats,
    "pareto": cmd_pareto,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    root = args.workspace or os.environ.get("RAGHARNESS_WORKSPACE") or "."
    try:
        if args.command == "grid":
            return cmd_grid(None, args)
        from .analysis import load_workspace

        return _COMMANDS[args.command](load_workspace(root), args)
    except HarnessError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
