"""A workspace's config (`load_workspace`) and `Analysis`, the inputs the
commands read and what they build from the run set. Package functions are
called through their module (``ingest.load_runs``), never bound by name, so
that a tracer that wraps each module's functions sees every call."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from . import dataset, ingest, retrieval
from .errors import HarnessError, _reject_stray, as_file_id, as_float, as_int

if TYPE_CHECKING:
    from .stats import ResamplePlan

# The largest seed: the bootstrap hashes the seed as one 64-bit word
# (stats.subseed), so a wider one would alias a seed in range.
_SEED_MAX = (1 << 64) - 1


def _default_regimes() -> list:
    """The regimes of a workspace.json without any: one, of the base variant."""
    return [("01_base__neutral", "base")]


def _parse_regimes(config_path: Path, specs):
    """(id, variant) per regime spec of a list of at least one; each spec
    needs a unique string id that can stand in an output file name, and a
    known variant. A prompt mode, if given, must be a known one and is then
    dropped."""
    if not isinstance(specs, list):
        raise HarnessError(f"{config_path}: regimes must be a list")
    # No regime would leave retrieve nothing to write.
    if not specs:
        raise HarnessError(f"{config_path}: regimes lists no regime")
    regimes = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict) or not isinstance(spec.get("id"), str):
            raise HarnessError(f"{config_path}: regime {i} needs a string 'id'")
        where = f"{config_path}: regime {spec['id']!r}"
        as_file_id(spec["id"], f"{where}: id")
        if any(spec["id"] == regime_id for regime_id, _ in regimes):
            raise HarnessError(f"{where}: duplicate id")
        _reject_stray(where, spec, ("id", "variant", "prompt_mode"))
        if "variant" not in spec:
            raise HarnessError(f"{where}: missing 'variant'")
        # Membership in tuples, not in a dict, so that a list or an object
        # is an unknown value rather than a TypeError.
        if spec["variant"] not in retrieval.RETRIEVAL_VARIANTS:
            raise HarnessError(f"{where}: unknown retrieval variant {spec['variant']!r}")
        if spec.get("prompt_mode", "neutral") not in retrieval.PROMPT_MODES:
            raise HarnessError(f"{where}: unknown prompt mode {spec['prompt_mode']!r}")
        regimes.append((spec["id"], spec["variant"]))
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
    k_rrf: float = retrieval.DEFAULT_K_RRF
    resamples: int = 1000
    level: float = 0.95
    pass_threshold: int = 4
    seed: int = 0
    # (id, variant) per regime spec of workspace.json, in its order.
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
                    raise HarnessError(
                        f"{f.name}: cannot look up {path}: {exc.strerror}"
                    ) from exc
                setattr(self, f.name, path)
        if self.retrieve_top_n < 1 or self.eval_top_k < 1:
            raise HarnessError("retrieve_top_n and eval_top_k must be positive")
        if self.eval_top_k > self.retrieve_top_n:
            raise HarnessError("eval_top_k must not exceed retrieve_top_n")
        if not (math.isfinite(self.k_rrf) and self.k_rrf > 0):
            raise HarnessError(f"k_rrf must be positive and finite, got {self.k_rrf!r}")
        if not 0.0 < self.level < 1.0:
            raise HarnessError("level must be in (0, 1)")
        if self.resamples < 1:
            raise HarnessError(f"resamples must be >= 1, got {self.resamples}")
        if not 1 <= self.pass_threshold <= 5:
            raise HarnessError(
                f"pass_threshold must be in 1..5, got {self.pass_threshold}"
            )
        if not 0 <= self.seed <= _SEED_MAX:
            raise HarnessError(f"seed must be in 0..{_SEED_MAX}, got {self.seed}")

    def plan(self) -> ResamplePlan:
        from .stats import ResamplePlan

        return ResamplePlan(
            n_resamples=self.resamples, level=self.level, master_seed=self.seed
        )


def load_workspace(root) -> WorkspaceConfig:
    """The workspace config of `root`: each path or knob workspace.json
    gives, checked, and WorkspaceConfig's default for each it leaves out.
    An output directory, or the nearest of its ancestors that exists, that
    is not a directory fails here, before any command writes."""
    root = Path(root)
    config_path = root / "workspace.json"
    if not config_path.is_file():
        raise HarnessError(f"workspace config not found: {config_path}")
    raw = ingest.read_json(config_path)
    # The root is where workspace.json lies, never a key of it.
    _reject_stray(
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
                raise HarnessError(
                    f"{config_path}: {f.name} must be a path string, got {value!r}"
                )
            given[f.name] = value
            continue
        kind = type(f.default)
        try:
            given[f.name] = as_int(value, f.name) if kind is int else as_float(value, f.name)
        except (ValueError, OverflowError) as exc:
            noun = "an integer" if kind is int else "a number"
            raise HarnessError(
                f"{config_path}: {f.name} must be {noun}, got {value!r}"
            ) from exc
    # null regimes, like none, stands for the default regimes.
    if raw.get("regimes") is not None:
        given["regimes"] = _parse_regimes(config_path, raw["regimes"])
    ws = WorkspaceConfig(root=root, **given)
    out = _nearest_existing(ws.out)
    if not out.is_dir():
        raise HarnessError(f"out is not a directory: {out}")
    return ws


def _input(ws: WorkspaceConfig, key: str) -> Path | None:
    """The path workspace.json gives for `key`, or None when it names none.
    A named path that does not exist, or that is not a regular file (not a
    directory, for the run set), is an error, never a skipped input."""
    path = getattr(ws, key)
    if path is None:
        return None
    if not path.exists():
        raise HarnessError(f"{key} not found: {path}")
    if key == "runs" and not path.is_dir():
        raise HarnessError(f"{key} is not a directory: {path}")
    if key != "runs" and not path.is_file():
        raise HarnessError(f"{key} is not a regular file: {path}")
    return path


def _nearest_existing(path: Path) -> Path:
    """`path`, or the nearest of its ancestors that exists."""
    return next(p for p in (path, *path.parents) if p.exists())


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
                raise HarnessError(
                    f"regime {regime_id!r}: output name {_regime_file(kind, '<id>', axes)!r} "
                    f"would be {size} bytes, over the {limit} a file name may have "
                    f"under {where}"
                )


def _finite_numbers(values) -> bool:
    """Whether every value is a finite JSON number: a boolean, a string or an
    integer too large for a float is not. Both passes run at C speed, which
    matters for embeddings tables of thousands of vectors."""
    try:
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    except OverflowError:
        return False


def _read_embeddings(path: Path, chunks, pairs, qa_file: str):
    """(dim, {chunk_id: vector}, {qa_id: vector}) from an embeddings file
    with at least one chunk vector. Each vector, chunk or query, is a JSON
    list of exactly `dim` finite numbers whose squared norm a float holds,
    each chunk vector is of a chunk of the corpus map `chunks` and each
    query vector of a question of `pairs`, the map of `qa_file`; nothing
    here needs numpy."""
    raw = ingest.read_json(path)
    try:
        dim = as_int(raw["dim"], "dim")
        vectors, queries = raw["chunks"], raw["queries"]
    except KeyError as exc:
        raise HarnessError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise HarnessError(f"{path}: bad value: {exc}") from exc
    if dim < 1:
        raise HarnessError(f"{path}: bad value: dim must be positive, got {dim}")
    # Without a chunk vector the dense channel ranks nothing, and every
    # question it serves would get an empty context.
    if not vectors:
        raise HarnessError(f"{path}: bad value: chunks holds no chunk vector")
    for kind, by_id in (("chunk", vectors), ("query", queries)):
        if not isinstance(by_id, dict):
            raise HarnessError(f"{path}: bad value: {kind} vectors must be an object")
        for vid, vec in by_id.items():
            if not (isinstance(vec, list) and len(vec) == dim and _finite_numbers(vec)):
                raise HarnessError(
                    f"{path}: bad value: {kind} vector {vid!r} must be a list of "
                    f"{dim} finite numbers"
                )
            # Retrieval divides each vector by the root of its squared norm:
            # one that overflows would read it as a zero vector, and a
            # nonzero one that underflows to 0 would leave it unscaled.
            norm = math.hypot(*vec)
            if norm and not 0.0 < norm * norm < math.inf:
                how = "overflows" if norm > 1.0 else "underflows to 0"
                raise HarnessError(
                    f"{path}: bad value: {kind} vector {vid!r} has a squared norm that "
                    f"{how} as a float"
                )
    # A vector of no corpus chunk would be served as a context, and one of
    # no question read as nothing.
    _reject_stray(path, vectors, chunks, "chunk vector", " is of no corpus chunk")
    _reject_stray(path, queries, pairs, "query vector", f" is of no question of {qa_file}")
    return dim, vectors, queries


def _by_qa_id(run) -> list[int]:
    """The positions of `run`'s records in ascending qa_id order: the order
    of scores.jsonl and of the param-matched pairing."""
    return sorted(range(len(run)), key=run.qa_ids.__getitem__)


class Analysis:
    """The inputs of one workspace and what the commands build from them,
    each part read or built on first use and kept. The run set is loaded
    with the judge scores joined and each record scored as it is read, but
    unjudged for score and unscored for validate, which also checks the
    corpus checksum and has run_set None when workspace.json names none."""

    def __init__(self, ws: WorkspaceConfig, judged: bool = True, scored: bool = True):
        self.ws, self.judged, self.scored = ws, judged, scored

    @cached_property
    def chunks(self) -> dict:
        """{chunk_id: Chunk} of the corpus, in file order. When a regime
        fuses the sparse channel, some chunk text needs a BM25 token."""
        chunks = dataset.load_corpus(_input(self.ws, "corpus"))
        fuses_sparse = any("sparse" in retrieval.VARIANTS[v][0] for _, v in self.ws.regimes)
        if fuses_sparse and not any(retrieval.tokenize(c.text) for c in chunks.values()):
            raise HarnessError(retrieval.NO_TOKEN_ERROR)
        return chunks

    @cached_property
    def pairs(self) -> dict:
        """{qa_id: QaPair} of the QA file, of any split, in file order."""
        return dataset.load_qa(_input(self.ws, "qa"))

    @cached_property
    def gold(self) -> dict:
        """{qa_id: gold answer} of the test split, the questions runs answer."""
        return {p.qa_id: p.gold_answer for p in self.pairs.values() if p.split == "test"}

    @cached_property
    def run_set(self):
        """The run set, each record of a test-split question, and each
        dataset file it is read against matching the manifest's checksum."""
        gold = self.gold
        path = _input(self.ws, "runs")
        if path is None and not self.scored:
            return None
        if path is None:
            raise HarnessError("workspace defines no run-set directory")
        judge = _input(self.ws, "judge_scores") if self.judged else None
        datasets = {"corpus": self.ws.corpus, "qa": self.ws.qa}
        if self.scored:  # the scoring commands read no corpus
            del datasets["corpus"]
        return ingest.load_runs(path, gold, judge, datasets, self.scored)

    @cached_property
    def costs(self) -> dict:
        """The cost profiles by config id, {} when workspace.json names none.
        With a run set, a VRAM override of a regime the run set lacks, which
        no table would read, is an error."""
        path = _input(self.ws, "costs")
        if path is None:
            return {}
        costs = ingest.load_cost_profile(path)
        if self.run_set is None:
            return costs
        for profile in costs.values():
            for regime_id in profile.inference_vram_by_regime:
                if regime_id not in self.run_set.runs:
                    raise HarnessError(
                        f"{path}: config {profile.config_id!r}: inf_vram_by_regime "
                        f"names regime {regime_id!r}, which the run set lacks"
                    )
        return costs

    @cached_property
    def embeddings(self):
        """What `_read_embeddings` gives, None without an embeddings file,
        once every regime serves each test question through a channel it
        fuses: BM25 serves every question, the dense channel those with a
        query vector."""
        path = _input(self.ws, "embeddings")
        embeddings = (
            _read_embeddings(path, self.chunks, self.pairs, self.ws.qa.name)
            if path is not None
            else None
        )
        test_ids = self.gold.keys()
        queries = embeddings[2] if embeddings is not None else {}
        have = {"sparse": test_ids, "dense": test_ids & queries.keys()}
        for regime_id, variant in self.ws.regimes:
            channels = retrieval.VARIANTS[variant][0]
            lacking = len(test_ids) - len(set().union(*(have[c] for c in channels)))
            if lacking:
                raise HarnessError(
                    f"regime {regime_id!r}: {lacking} of {len(test_ids)} test questions "
                    f"have no channel that {variant!r} fuses ({', '.join(channels)})"
                )
        return embeddings

    @cached_property
    def rerank(self) -> dict:
        """Per-question rerank scores: {qa_id: {chunk_id: finite number}},
        each key a question of the QA file and each chunk id a corpus
        chunk's, since a key that names nothing would be read as nothing."""
        path = _input(self.ws, "rerank_scores")
        if path is None:
            return {}
        rerank = ingest.read_json(path)
        if not all(
            isinstance(scores, dict) and _finite_numbers(scores.values())
            for scores in rerank.values()
        ):
            raise HarnessError(f"{path}: expected {{qa_id: {{chunk_id: finite number}}}}")
        of_qa = f" is of no question of {self.ws.qa.name}"
        _reject_stray(path, rerank, self.pairs, "rerank entry", of_qa)
        for qa_id, scores in rerank.items():
            where = f"{path}: rerank entry {qa_id!r}"
            _reject_stray(where, scores, self.chunks, "chunk id", " is of no corpus chunk")
        return rerank

    @cached_property
    def labels(self) -> list | None:
        """The error labels workspace.json names, or None when it names none."""
        path = _input(self.ws, "labels")
        return ingest.load_labels(path, self.run_set) if path is not None else None

    @cached_property
    def tables(self) -> dict:
        """{regime_id: regime table}, one per regime of the run set, in
        regime order, once every output name of those regimes is checked."""
        from . import report

        runs = self.run_set.runs
        _check_regime_ids(self.ws, runs)
        costs, plan = self.costs, self.ws.plan()
        return {
            regime_id: report.regime_table(by_config, costs, plan, self.ws.pass_threshold)
            for regime_id, by_config in runs.items()
        }

    @cached_property
    def matched(self) -> dict:
        """{regime_id: [(budget, qv run, full run, qv positions, full
        positions)]} per param-matched pair of configs a regime holds, in grid
        order, each positions list in its run's qa_id order; {} when no config
        ids pair up. A config id that `lora_grid.parse_config_id` cannot read,
        and a pair, or the pairs pooled in a regime, covering different
        qa_ids, is an error rather than a pair left out or a delta over
        unmatched examples."""
        if self.run_set is None:
            return {}
        from . import lora_grid

        # Sorted as text first, so that ids tied in grid order (08B and 8B),
        # and the first id that does not parse, do not depend on set order.
        config_ids = sorted({cid for runs in self.run_set.runs.values() for cid in runs})
        config_ids.sort(key=lora_grid.grid_order)
        matched = lora_grid.param_matched_pairs(config_ids)
        if not matched:
            return {}
        aligned = {}
        for regime_id, runs in self.run_set.runs.items():
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
                    raise HarnessError(
                        f"regime {regime_id!r}: {qv_id!r} and {full_id!r} cover different "
                        f"qa_ids ({len(a_ids - b_ids)} only in {qv_id!r}, "
                        f"{len(b_ids - a_ids)} only in {full_id!r})"
                    )
                if pooled_ids is None:
                    pooled_ids = qa_ids
                elif qa_ids != pooled_ids:
                    raise HarnessError(
                        f"regime {regime_id!r}: cannot pool param-matched pairs over "
                        f"different qa_ids ({qv_id!r} and {full_id!r} differ from "
                        f"the first pair)"
                    )
                pairs.append((budget, a, b, a_order, b_order))
        return aligned
