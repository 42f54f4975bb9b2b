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
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import HarnessError, as_file_id, as_float, as_int

# Each command imports only what it uses, since at the sizes workspaces
# usually have, start-up costs more than the work:
# - numpy loads with `stats` and the retrieval scorers, so each is imported
#   only where arrays are built: in `retrieve` (the index, the scorers and
#   the embedding table) and in the bootstrap behind stats, pareto and
#   report. grid, score and validate never load numpy; validate checks the
#   embeddings and the error labels as plain JSON.
# - OpenSSL's libcrypto loads with hashlib. `ingest` imports it only to
#   verify a run manifest, but `import numpy.random` imports it too (through
#   `secrets` and `hmac`), so the bootstrap behind stats, pareto and report
#   loads libcrypto whatever `ingest` does. Only validate and score load it
#   for the manifest alone; retrieve, whose arrays need no numpy.random, and
#   grid never load it.
# - Every package module but `errors` is imported only where it is used;
#   all but `metrics` and `lora_grid` build dataclasses on import. grid
#   loads `lora_grid` alone, and none of `dataset`, `ingest` and
#   `retrieval`. Every workspace command loads those three, since each
#   regime spec is a `RetrievalRegime`. Of `metrics`, `report`, `pareto`
#   and `lora_grid`, validate loads `lora_grid` alone, which reads every
#   config id and pairs the param-matched configs, and score loads
#   `metrics` alone.
if TYPE_CHECKING:
    from .stats import ResamplePlan

# The largest seed: the bootstrap hashes the seed as one 64-bit word
# (stats.subseed), so a wider one would alias a seed in range.
_SEED_MAX = (1 << 64) - 1


class WorkspaceError(HarnessError):
    pass


def _reject_unknown_keys(where: str, raw: dict, known) -> None:
    """Fail on the first key of `raw` that is not `known`, which would
    otherwise be read as nothing at all."""
    unknown = next((key for key in raw if key not in known), None)
    if unknown is not None:
        raise WorkspaceError(f"{where}: unknown key {unknown!r}")


def _default_regimes() -> list:
    """The regimes of a workspace.json without any: one, of the base variant."""
    from .retrieval import RetrievalRegime

    return [("01_base__neutral", RetrievalRegime("base", "neutral"))]


def _parse_regimes(config_path: Path, specs):
    """(id, RetrievalRegime) per regime spec; each spec needs a unique string
    id that can stand in an output file name, and a known variant."""
    from . import retrieval

    if not isinstance(specs, list):
        raise WorkspaceError(f"{config_path}: regimes must be a list")
    regimes = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict) or not isinstance(spec.get("id"), str):
            raise WorkspaceError(f"{config_path}: regime {i} needs a string 'id'")
        where = f"{config_path}: regime {spec['id']!r}"
        as_file_id(spec["id"], f"{where}: id")
        if any(spec["id"] == regime_id for regime_id, _ in regimes):
            raise WorkspaceError(f"{where}: duplicate id")
        _reject_unknown_keys(where, spec, ("id", "variant", "prompt_mode"))
        if "variant" not in spec:
            raise WorkspaceError(f"{where}: missing 'variant'")
        try:
            regime = retrieval.RetrievalRegime(
                retrieval_variant=spec["variant"],
                prompt_mode=spec.get("prompt_mode", "neutral"),
            )
        except retrieval.RetrievalError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc
        regimes.append((spec["id"], regime))
    return regimes


def _is_path(f) -> bool:
    """Whether a WorkspaceConfig field is a path, which is the case exactly
    when its default is one or None; every knob defaults to a number, and the
    regime specs to a list."""
    return f.default is None or isinstance(f.default, Path)


@dataclass
class WorkspaceConfig:
    """A workspace's inputs, output directory and knobs, with the defaults
    of workspace.json. Each path is taken relative to `root` on construction;
    an optional input left as None is not used."""

    root: Path
    corpus: Path = Path("corpus.jsonl")
    qa: Path = Path("qa.jsonl")
    out: Path = Path("out")
    embeddings: Path | None = None
    rerank_scores: Path | None = None
    runs: Path | None = None
    judge_scores: Path | None = None
    costs: Path | None = None
    labels: Path | None = None
    retrieve_top_n: int = 20
    eval_top_k: int = 2
    # retrieval.DEFAULT_K_RRF (a test pins the two equal), written out so
    # that importing cli does not load retrieval.
    k_rrf: float = 60.0
    resamples: int = 1000
    level: float = 0.95
    pass_threshold: int = 4
    seed: int = 0
    # (id, RetrievalRegime) per regime spec of workspace.json, in its order.
    regimes: list = field(default_factory=_default_regimes, repr=False)

    def __post_init__(self):
        for f in fields(self):
            if _is_path(f) and getattr(self, f.name) is not None:
                path = self.root / getattr(self, f.name)
                # A path the system cannot look up at all (a name too long,
                # a directory without search permission) fails here, so that
                # no later existence check raises.
                try:
                    path.exists()
                except OSError as exc:
                    raise WorkspaceError(
                        f"{f.name}: cannot look up {path}: {exc.strerror}"
                    ) from exc
                setattr(self, f.name, path)
        if self.retrieve_top_n < 1 or self.eval_top_k < 1:
            raise WorkspaceError("retrieve_top_n and eval_top_k must be positive")
        if self.eval_top_k > self.retrieve_top_n:
            raise WorkspaceError("eval_top_k must not exceed retrieve_top_n")
        if not (math.isfinite(self.k_rrf) and self.k_rrf > 0):
            raise WorkspaceError(f"k_rrf must be positive and finite, got {self.k_rrf!r}")
        if not 0.0 < self.level < 1.0:
            raise WorkspaceError("level must be in (0, 1)")
        if self.resamples < 1:
            raise WorkspaceError(f"resamples must be >= 1, got {self.resamples}")
        if not 1 <= self.pass_threshold <= 5:
            raise WorkspaceError(
                f"pass_threshold must be in 1..5, got {self.pass_threshold}"
            )
        if not 0 <= self.seed <= _SEED_MAX:
            raise WorkspaceError(f"seed must be in 0..{_SEED_MAX}, got {self.seed}")

    def plan(self) -> ResamplePlan:
        from .stats import ResamplePlan

        return ResamplePlan(
            n_resamples=self.resamples, level=self.level, master_seed=self.seed
        )


def load_workspace(root) -> WorkspaceConfig:
    """The workspace config of `root`: each path or knob workspace.json
    gives, checked, and WorkspaceConfig's default for each it leaves out."""
    from . import ingest

    root = Path(root)
    config_path = root / "workspace.json"
    if not config_path.is_file():
        raise WorkspaceError(f"workspace config not found: {config_path}")
    raw = ingest.read_json(config_path, WorkspaceError)
    # The root is where workspace.json lies, never a key of it.
    _reject_unknown_keys(
        str(config_path), raw, {f.name for f in fields(WorkspaceConfig) if f.init} - {"root"}
    )
    given = {}
    for f in fields(WorkspaceConfig):
        if f.name in ("root", "regimes") or f.name not in raw:
            continue
        value = raw[f.name]
        if _is_path(f):
            # null leaves out an optional input; a required one needs a path.
            if not (isinstance(value, str) or (value is None and f.default is None)):
                raise WorkspaceError(
                    f"{config_path}: {f.name} must be a path string, got {value!r}"
                )
            given[f.name] = value
            continue
        kind = type(f.default)
        try:
            given[f.name] = as_int(value, f.name) if kind is int else as_float(value, f.name)
        except (TypeError, ValueError, OverflowError) as exc:
            noun = "an integer" if kind is int else "a number"
            raise WorkspaceError(
                f"{config_path}: {f.name} must be {noun}, got {value!r}"
            ) from exc
    # null regimes, like none, stands for the default regimes.
    if raw.get("regimes") is not None:
        given["regimes"] = _parse_regimes(config_path, raw["regimes"])
    return WorkspaceConfig(root=root, **given)


def _input(ws: WorkspaceConfig, key: str) -> Path | None:
    """The path workspace.json gives for `key`, or None when it names none.
    A named path that does not exist, or that is not a regular file (not a
    directory, for the run set), is an error, never a skipped input."""
    path = getattr(ws, key)
    if path is None:
        return None
    if not path.exists():
        raise WorkspaceError(f"{key} not found: {path}")
    if key == "runs" and not path.is_dir():
        raise WorkspaceError(f"{key} is not a directory: {path}")
    if key != "runs" and not path.is_file():
        raise WorkspaceError(f"{key} is not a regular file: {path}")
    return path


def _nearest_existing(path: Path) -> Path:
    """`path`, or the nearest of its ancestors that exists."""
    return next(p for p in (path, *path.parents) if p.exists())


def _check_out(ws: WorkspaceConfig) -> None:
    """Fail before anything is written when the output directory, or the
    nearest of its ancestors that exists, is not a directory."""
    path = _nearest_existing(ws.out)
    if not path.is_dir():
        raise WorkspaceError(f"out is not a directory: {path}")


def _load_runs(ws: WorkspaceConfig, qa_ids, judged: bool = True, datasets=("qa",), score=None):
    """The run set, with the judge scores joined when `judged` and
    workspace.json names them, each of the `datasets` inputs checked
    against the manifest's checksum of it, and each record scored by
    `score` as it is read when one is given."""
    from . import ingest

    runs = _input(ws, "runs")
    if runs is None:
        raise WorkspaceError("workspace defines no run-set directory")
    judge = _input(ws, "judge_scores") if judged else None
    checked = {name: getattr(ws, name) for name in datasets}
    return ingest.load_runs(runs, qa_ids=qa_ids, judge_path=judge, datasets=checked, score=score)


def _load_costs(ws: WorkspaceConfig) -> dict:
    from . import ingest

    path = _input(ws, "costs")
    return ingest.load_cost_profile(path) if path is not None else {}


def _write_text(path: Path, chunks) -> None:
    """Write the strings of `chunks` to `path` as UTF-8 with LF line ends,
    creating its directory; every non-CSV output goes through here. A file
    the system cannot write is a WorkspaceError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise WorkspaceError(f"cannot write {path}: {exc.strerror}") from exc


def _write_json(path: Path, payload) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def _write_jsonl(path: Path, rows) -> None:
    """One JSON object per line, keys sorted; `rows` may be a generator. One
    encoder serves the whole file: `json.dumps` with `sort_keys` would build
    a new one per row."""
    encode = json.JSONEncoder(sort_keys=True).encode
    _write_text(path, (encode(row) + "\n" for row in rows))


def _score_runs(ws: WorkspaceConfig, judged: bool = True):
    """The run set with every record scored once, as it is read. Scoring
    needs the gold answers alone, so the corpus is not read, nor the judge
    scores unless `judged`. A record of a question outside the test split is
    an error, and so is a QA file whose sha256 is not the one the run
    manifest gives."""
    from . import dataset, metrics

    pairs = dataset.load_qa(_input(ws, "qa"))
    gold = {p.qa_id: p.gold_answer for p in pairs if p.split == "test"}
    return _load_runs(ws, gold, judged, score=metrics.scorer(gold))


def _regime_tables(ws: WorkspaceConfig):
    """(run set, cost profiles, {regime_id: regime table}): the run set
    scored once and one table per regime of it, in regime order; what stats,
    pareto and report share."""
    from . import report

    run_set = _score_runs(ws)
    _check_regime_ids(ws, run_set.runs)
    costs = _load_costs(ws)
    plan = ws.plan()
    tables = {
        regime_id: report.regime_table(runs, costs, plan, ws.pass_threshold)
        for regime_id, runs in run_set.runs.items()
    }
    return run_set, costs, tables


def _by_qa_id(run) -> list[int]:
    """The positions of `run`'s records in ascending qa_id order: the order
    of scores.jsonl and of the param-matched pairing."""
    return sorted(range(len(run)), key=run.qa_ids.__getitem__)


_REGIME_COLUMNS = [
    "config", "n", "f1", "f1_lo", "f1_hi", "em",
    "grnd_pass", "grnd_lo", "grnd_hi",
    "corr_pass", "corr_lo", "corr_hi",
    "latency", "inference_vram",
]


def _regime_csv_row(r) -> list:
    def bounds(interval):
        return [interval.lo, interval.hi] if interval else [None, None]

    return [
        r.config_id, r.n, r.f1, *bounds(r.f1_interval), r.em_rate,
        r.grnd_pass, *bounds(r.grnd_interval),
        r.corr_pass, *bounds(r.corr_interval),
        r.latency, r.inference_vram,
    ]


def cmd_validate(ws: WorkspaceConfig, args) -> int:
    """Load every input with the checks of the commands that read it, and
    stop at the first fault; nothing is scored and numpy is not loaded."""
    from . import dataset, retrieval

    chunks = dataset.load_corpus(_input(ws, "corpus"))
    pairs = dataset.load_qa(_input(ws, "qa"))
    fuses_sparse = any("sparse" in regime.channels for _, regime in ws.regimes)
    if fuses_sparse and not any(retrieval.tokenize(c.text) for c in chunks):
        raise WorkspaceError(retrieval.NO_TOKEN_ERROR)
    bad = dataset.check_supporting_ids(pairs, chunks)
    if bad:
        raise WorkspaceError(f"unresolved supporting_chunk_ids for: {bad[:5]}")
    test_ids = {p.qa_id for p in pairs if p.split == "test"}
    run_set = _load_runs(ws, test_ids, datasets=("corpus", "qa")) if ws.runs is not None else None
    run_regimes = run_set.runs if run_set is not None else {}
    _check_regime_ids(ws, [*(regime_id for regime_id, _ in ws.regimes), *run_regimes])
    if run_set is not None:
        # As stats does: every config id parses, each pair covers the same qa_ids.
        _param_matched(run_set)
    _load_costs(ws)
    _check_channels(ws, test_ids, _read_embeddings(ws))
    _load_rerank(ws)
    _load_labels(ws, run_set)
    print(f"validate: ok ({len(chunks)} chunks, {len(pairs)} QA rows, test={len(test_ids)})")
    if run_set is not None:
        unscored = sum(
            run.groundedness.count(None) for runs in run_set.runs.values() for run in runs.values()
        )
        print(
            f"validate: judge coverage: {len(run_set.unmatched_scores)} judge rows "
            f"match no record, {unscored} of {run_set.n_records()} records "
            f"have no judge score"
        )
    return 0


# The name of each output that a regime id becomes part of. A front's name
# grows with its axes: the benchmarked pair stands for them in every
# command's check of name lengths, and pareto checks its own axes too.
_REGIME_FILE_NAMES = {
    "contexts": "contexts_{}.jsonl",
    "stats": "stats_{}.csv",
    "regime_csv": "regime_{}.csv",
    "regime_txt": "regime_{}.txt",
    "front": "front_{}_{}.csv",
}


_FRONT_AXES = ("latency", "inference_vram")


def _regime_file(kind: str, regime_id: str, axes=_FRONT_AXES) -> str:
    return _REGIME_FILE_NAMES[kind].format(regime_id, "_".join(axes))


def _check_regime_ids(ws: WorkspaceConfig, regime_ids, axes=_FRONT_AXES) -> None:
    """Fail on the first regime id that makes an output file name, a front's
    over `axes`, longer than the file system under `out` allows (255 bytes
    when it does not say)."""
    where = _nearest_existing(ws.out)
    try:
        limit = os.pathconf(where, "PC_NAME_MAX")
    except (OSError, ValueError, AttributeError):
        limit = -1
    if limit < 1:
        limit = 255
    for regime_id in regime_ids:
        for kind in _REGIME_FILE_NAMES:
            size = len(_regime_file(kind, regime_id, axes).encode("utf-8", "surrogatepass"))
            if size > limit:
                raise WorkspaceError(
                    f"regime {regime_id!r}: output name {_regime_file(kind, '<id>', axes)!r} "
                    f"would be {size} bytes, over the {limit} a file name may have "
                    f"under {where}"
                )


def _check_channels(ws: WorkspaceConfig, test_ids: set, embeddings) -> None:
    """Fail on the first regime under which some test question has none of
    the channels its variant fuses, as `retrieve` does. BM25 serves every
    question; the dense channel, those `embeddings` has a query vector for."""
    queries = embeddings[2] if embeddings is not None else {}
    have = {"sparse": test_ids, "dense": test_ids & queries.keys()}
    for regime_id, regime in ws.regimes:
        lacking = len(test_ids) - len(set().union(*(have[c] for c in regime.channels)))
        if lacking:
            raise WorkspaceError(
                f"regime {regime_id!r}: {lacking} of {len(test_ids)} test questions "
                f"have no channel that {regime.retrieval_variant!r} fuses "
                f"({', '.join(regime.channels)})"
            )


def _finite_numbers(values) -> bool:
    """Whether every value is a finite JSON number: a boolean, a string or an
    integer too large for a float is not. Both passes run at C speed, which
    matters for embeddings tables of thousands of vectors."""
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:
        return False


def _read_embeddings(ws: WorkspaceConfig):
    """(dim, {chunk_id: vector}, {qa_id: vector}) from the embeddings file, or
    None when workspace.json names none. Each vector, chunk or query, is a
    JSON list of exactly `dim` finite numbers; nothing here needs numpy."""
    from . import ingest

    path = _input(ws, "embeddings")
    if path is None:
        return None
    raw = ingest.read_json(path, WorkspaceError)
    try:
        dim = as_int(raw["dim"], "dim")
        chunks, queries = raw["chunks"], raw["queries"]
    except KeyError as exc:
        raise WorkspaceError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise WorkspaceError(f"{path}: bad value: {exc}") from exc
    if dim < 1:
        raise WorkspaceError(f"{path}: bad value: dim must be positive, got {dim}")
    for kind, vectors in (("chunk", chunks), ("query", queries)):
        if not isinstance(vectors, dict):
            raise WorkspaceError(f"{path}: bad value: {kind} vectors must be an object")
        for vid, vec in vectors.items():
            if not (isinstance(vec, list) and len(vec) == dim and _finite_numbers(vec)):
                raise WorkspaceError(
                    f"{path}: bad value: {kind} vector {vid!r} must be a list of "
                    f"{dim} finite numbers"
                )
    return dim, chunks, queries


def _load_rerank(ws: WorkspaceConfig) -> dict:
    """Per-question rerank scores: {qa_id: {chunk_id: finite number}}."""
    from . import ingest

    path = _input(ws, "rerank_scores")
    if path is None:
        return {}
    rerank = ingest.read_json(path, WorkspaceError)
    if not all(
        isinstance(scores, dict) and _finite_numbers(scores.values())
        for scores in rerank.values()
    ):
        raise WorkspaceError(f"{path}: expected {{qa_id: {{chunk_id: finite number}}}}")
    return rerank


def cmd_retrieve(ws: WorkspaceConfig, args) -> int:
    from . import dataset, retrieval

    # validate's checks of the output names and the channels run before
    # anything is written.
    _check_regime_ids(ws, [regime_id for regime_id, _ in ws.regimes])
    regimes = [regime for _, regime in ws.regimes]
    fused = {name for regime in regimes for name in regime.channels}
    chunks = dataset.load_corpus(_input(ws, "corpus"))
    pairs = dataset.load_qa(_input(ws, "qa"))
    test_pairs = [p for p in pairs if p.split == "test"]
    index = retrieval.build_sparse_index(chunks) if "sparse" in fused else None
    # Read after the index is built, so that the vectors' lists and the
    # index's build never take memory at the same time.
    embeddings = _read_embeddings(ws)
    _check_channels(ws, {p.qa_id for p in test_pairs}, embeddings)
    table, queries = None, {}
    if embeddings is not None:
        dim, vectors, queries = embeddings
        table = retrieval.EmbeddingTable(vectors=vectors, dim=dim)
    rerank = _load_rerank(ws)

    # Each question's channels are scored once and its fusion run once for
    # every regime; only each regime's eval_top_k ids are kept.
    contexts = [[] for _ in regimes]
    n_sparse = n_dense = n_fusions = 0
    fuses_two = any(len(regime.channels) > 1 for regime in regimes)
    for pair in test_pairs:
        sparse = dense = None
        if index is not None:
            sparse = retrieval.score_sparse(index, pair.question, ws.retrieve_top_n)
            n_sparse += 1
        if "dense" in fused and table is not None and pair.qa_id in queries:
            dense = retrieval.score_dense(table, queries[pair.qa_id], ws.retrieve_top_n)
            n_dense += 1
        n_fusions += fuses_two and sparse is not None and dense is not None
        selected = retrieval.select_contexts(
            regimes, dense, sparse, rerank.get(pair.qa_id),
            retrieve_top_n=ws.retrieve_top_n, eval_top_k=ws.eval_top_k, k_rrf=ws.k_rrf,
        )
        for kept, context in zip(contexts, selected):
            kept.append(context)

    # The sparse channel is always there; the dense one and the rerank
    # scores only for the questions their files cover.
    no_dense = sum(1 for p in test_pairs if table is None or p.qa_id not in queries)
    unranked = sum(1 for p in test_pairs if not rerank.get(p.qa_id))
    for (regime_id, regime), kept in zip(ws.regimes, contexts):
        out_path = ws.out / _regime_file("contexts", regime_id)
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
            f"{no_dense if 'dense' in regime.channels else 0} ran with fewer channels "
            f"than {regime.retrieval_variant!r} names and "
            f"{unranked if regime.reranks else 0} without the rerank scores it names"
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
    # scores.jsonl has no judge column, so the judge scores are not read.
    run_set = _score_runs(ws, judged=False)
    out_path = ws.out / "scores.jsonl"
    _write_text(out_path, _score_lines(run_set))
    print(f"score: wrote {out_path} ({run_set.n_records()} records)")
    return 0


def cmd_stats(ws: WorkspaceConfig, args) -> int:
    from . import report

    run_set, _, tables = _regime_tables(ws)
    matched = _param_matched(run_set)
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
        report.write_csv(
            ws.out / _regime_file("stats", regime_id), _REGIME_COLUMNS, map(_regime_csv_row, rows)
        )
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


def _param_matched(run_set) -> dict:
    """{regime_id: [(budget, qv run, full run, qv positions, full positions)]}
    per param-matched pair of configs a regime holds, in grid order, each
    positions list in its run's qa_id order; {} when no config ids pair up.
    A config id that `lora_grid.parse_config_id` cannot read, and a pair, or
    the pairs pooled in a regime, covering different qa_ids, is an error
    rather than a pair left out or a delta over unmatched examples."""
    from . import lora_grid

    # Sorted as text first, so that ids tied in grid order (08B and 8B), and
    # the first id that does not parse, do not depend on set order.
    config_ids = sorted({cid for runs in run_set.runs.values() for cid in runs})
    config_ids.sort(key=lora_grid.grid_order)
    matched = lora_grid.param_matched_pairs(config_ids)
    if not matched:
        return {}
    aligned = {}
    for regime_id, runs in run_set.runs.items():
        aligned[regime_id] = pairs = []
        pooled_ids = None
        for budget, qv_id, full_id in matched:
            a, b = runs.get(qv_id), runs.get(full_id)
            if a is None or b is None:
                continue
            a_order, b_order = _by_qa_id(a), _by_qa_id(b)
            qa_ids = [a.qa_ids[i] for i in a_order]
            if qa_ids != [b.qa_ids[i] for i in b_order]:
                a_ids, b_ids = set(a.qa_ids), set(b.qa_ids)
                raise WorkspaceError(
                    f"regime {regime_id!r}: {qv_id!r} and {full_id!r} cover different "
                    f"qa_ids ({len(a_ids - b_ids)} only in {qv_id!r}, "
                    f"{len(b_ids - a_ids)} only in {full_id!r})"
                )
            if pooled_ids is None:
                pooled_ids = qa_ids
            elif qa_ids != pooled_ids:
                raise WorkspaceError(
                    f"regime {regime_id!r}: cannot pool param-matched pairs over "
                    f"different qa_ids ({qv_id!r} and {full_id!r} differ from "
                    f"the first pair)"
                )
            pairs.append((budget, a, b, a_order, b_order))
    return aligned


def cmd_pareto(ws: WorkspaceConfig, args) -> int:
    from . import report
    from .pareto import COST_AXES, ParetoPoint, pareto_front

    axes = tuple(args.axes.split(","))
    for i, axis in enumerate(axes):
        if axis not in COST_AXES:
            raise WorkspaceError(f"unknown cost axis {axis!r}")
        if axis in axes[:i]:
            raise WorkspaceError(f"repeated cost axis {axis!r}")
    _, costs, tables = _regime_tables(ws)
    regime_ids = [args.regime] if args.regime else list(tables)
    if args.regime and args.regime not in tables:
        raise WorkspaceError(f"regime {args.regime!r} not in run set")
    # Every front's name is checked, and every front worked out, before the
    # first file is written.
    _check_regime_ids(ws, regime_ids, axes)
    fronts = []
    for regime_id in regime_ids:
        rows = tables[regime_id]
        points = []
        for r in rows:
            profile = costs.get(r.config_id)
            cost = {
                "latency": r.latency,
                "inference_vram": r.inference_vram,
                "training_time": profile.training_time if profile else None,
                "training_vram": profile.training_vram if profile else None,
            }
            cost = {axis: val for axis, val in cost.items() if val is not None}
            absent = [axis for axis in axes if axis not in cost]
            if absent:
                raise WorkspaceError(
                    f"regime {regime_id!r}: config {r.config_id!r} has no {absent[0]!r} cost"
                )
            points.append(ParetoPoint(r.config_id, r.f1, cost, regime_id))
        fronts.append((regime_id, points, pareto_front(points, axes)))
    for regime_id, points, front in fronts:
        out_path = ws.out / _regime_file("front", regime_id, axes)
        report.emit_front_data(points, front, out_path, axes)
        print(f"pareto: wrote {out_path} ({len(front)} on front)")
    return 0


def _load_labels(ws: WorkspaceConfig, run_set) -> list | None:
    """The error labels workspace.json names, or None when it names none."""
    from . import ingest

    path = _input(ws, "labels")
    return ingest.load_labels(path, run_set) if path is not None else None


def cmd_report(ws: WorkspaceConfig, args) -> int:
    from . import report

    run_set, _, tables = _regime_tables(ws)
    # Whatever can reject the inputs (a config id without a scheme, a label
    # that matches no record) fails here, before any file is written.
    labels = _load_labels(ws, run_set)
    summary = report.ablation_summary(tables)
    wins = report.scheme_wins(summary)
    error_counts = report.error_counts(labels) if labels is not None else None
    for regime_id, rows in tables.items():
        report.write_csv(
            ws.out / _regime_file("regime_csv", regime_id),
            _REGIME_COLUMNS,
            map(_regime_csv_row, rows),
        )
        text = report.format_regime_table(rows, ws.level, ws.pass_threshold)
        _write_text(ws.out / _regime_file("regime_txt", regime_id), [text])
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
            k = run_set.runs[regime_id][row.config_id].eval_top_k
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


def cmd_grid(ws, args) -> int:
    from . import lora_grid

    bases = tuple(args.bases.split(","))
    try:
        ranks = tuple(as_int(r, "rank") for r in args.ranks.split(","))
    except ValueError as exc:
        raise lora_grid.GridError(f"--ranks must be integers, got {args.ranks!r}") from exc
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
        ws = load_workspace(root)
        _check_out(ws)
        return _COMMANDS[args.command](ws, args)
    except HarnessError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
