"""Run-artifact ingestion: per-example predictions with latencies, judge
scores, per-config cost profiles, and the checksummed run manifest.

A run set is a directory with a ``manifest.json`` and one JSON-lines file per
(config, regime). All files are UTF-8 with LF terminators.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import HarnessError, as_int


class IngestError(HarnessError):
    pass


@dataclass(frozen=True)
class RunRecord:
    config_id: str
    regime_id: str
    qa_id: str
    predicted_answer: str
    latency: float
    context_chunk_ids: tuple[str, ...] = ()
    eval_top_k: int = 2
    correctness: int | None = None
    groundedness: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.latency) or self.latency < 0:
            raise IngestError(
                f"({self.config_id}, {self.regime_id}, {self.qa_id}): bad latency"
            )
        if self.eval_top_k < 1:
            raise IngestError("eval_top_k must be positive")


@dataclass(frozen=True)
class JudgeScore:
    config_id: str
    regime_id: str
    qa_id: str
    correctness: int
    groundedness: int

    def __post_init__(self):
        for name in ("correctness", "groundedness"):
            val = getattr(self, name)
            if not 1 <= val <= 5:
                raise IngestError(f"{name} out of 1..5: {val}")


@dataclass(frozen=True)
class CostProfile:
    config_id: str
    inference_vram: float | None = None
    training_time: float | None = None
    training_vram: float | None = None
    # Optional per-regime overrides of peak inference VRAM.
    inference_vram_by_regime: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name in ("inference_vram", "training_time", "training_vram"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise IngestError(f"{self.config_id}: negative {name}")

    def inference_vram_for(self, regime_id: str) -> float | None:
        return self.inference_vram_by_regime.get(regime_id, self.inference_vram)


@dataclass
class RunSet:
    records: list[RunRecord]
    manifest: dict
    unmatched_scores: list[JudgeScore] = field(default_factory=list)

    def regimes(self) -> list[str]:
        return sorted({rec.regime_id for rec in self.records})


def file_checksum(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def read_rows(path, build):
    """Yield (lineno, build(row)) for each row of a JSON-lines file. A blank
    line is skipped; a malformed line, a row that is not an object, and a
    missing or unconvertible field are IngestErrors naming file:line. Typed
    errors from `build` pass through."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{lineno}: malformed line: {exc}") from exc
            if not isinstance(row, dict):
                raise IngestError(f"{path}:{lineno}: expected a JSON object")
            try:
                item = build(row)
            except HarnessError:
                raise
            except KeyError as exc:
                raise IngestError(f"{path}:{lineno}: missing field {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise IngestError(f"{path}:{lineno}: bad field value: {exc}") from exc
            yield lineno, item


def _run_record(rec: dict) -> RunRecord:
    return RunRecord(
        config_id=str(rec["config"]),
        regime_id=str(rec["regime"]),
        qa_id=str(rec["qa_id"]),
        predicted_answer=str(rec["answer"]),
        latency=float(rec["latency_s"]),
        context_chunk_ids=tuple(rec.get("context_ids", ())),
        eval_top_k=as_int(rec.get("top_k", 2), "top_k"),
    )


def load_runs(path, qa_ids=None) -> RunSet:
    """Load a run-set directory. `qa_ids`, when given, is the set of valid
    test-split ids; records referencing anything else are rejected."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise IngestError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IngestError(f"{manifest_path}: malformed JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IngestError(f"{manifest_path}: expected a JSON object")
    records: list[RunRecord] = []
    seen: set[tuple[str, str, str]] = set()
    top_k: dict[tuple[str, str], int] = {}
    for entry in manifest.get("files", []):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise IngestError(f"{manifest_path}: file entry without a path: {entry!r}")
        file_path = root / entry["path"]
        if not file_path.exists():
            raise IngestError(f"manifest references missing file: {file_path}")
        expected = entry.get("sha256")
        if expected:
            actual = file_checksum(file_path)
            if actual != expected:
                raise IngestError(
                    f"checksum mismatch for {file_path}: {actual} != {expected}"
                )
        for lineno, record in read_rows(file_path, _run_record):
            key = (record.config_id, record.regime_id, record.qa_id)
            if key in seen:
                raise IngestError(f"{file_path}:{lineno}: duplicate record {key}")
            seen.add(key)
            k = top_k.setdefault(key[:2], record.eval_top_k)
            if record.eval_top_k != k:
                raise IngestError(
                    f"{file_path}:{lineno}: top_k {record.eval_top_k} differs from "
                    f"top_k {k} earlier in ({record.config_id}, {record.regime_id})"
                )
            if qa_ids is not None and record.qa_id not in qa_ids:
                raise IngestError(f"{file_path}:{lineno}: unknown qa_id {record.qa_id!r}")
            records.append(record)
    return RunSet(records=records, manifest=manifest)


def attach_judge_scores(run_set: RunSet, path) -> RunSet:
    """Left-join judge scores onto run records. Unmatched score rows are
    collected, not fatal; re-attaching the same file is idempotent."""
    scores = [
        score
        for _, score in read_rows(
            path,
            lambda rec: JudgeScore(
                config_id=str(rec["config"]),
                regime_id=str(rec["regime"]),
                qa_id=str(rec["qa_id"]),
                correctness=as_int(rec["correctness"], "correctness"),
                groundedness=as_int(rec["groundedness"], "groundedness"),
            ),
        )
    ]
    by_key = {(s.config_id, s.regime_id, s.qa_id): s for s in scores}
    joined: list[RunRecord] = []
    matched: set[tuple[str, str, str]] = set()
    for rec in run_set.records:
        key = (rec.config_id, rec.regime_id, rec.qa_id)
        score = by_key.get(key)
        if score is None:
            joined.append(rec)
        else:
            matched.add(key)
            joined.append(
                replace(rec, correctness=score.correctness, groundedness=score.groundedness)
            )
    unmatched = [s for s in scores if (s.config_id, s.regime_id, s.qa_id) not in matched]
    return RunSet(records=joined, manifest=run_set.manifest, unmatched_scores=unmatched)


def load_cost_profile(path, grid_ids=None) -> dict:
    """Load cost profiles keyed by config id. `grid_ids`, when given, rejects
    configs outside the known grid."""
    profiles: dict[str, CostProfile] = {}
    rows = read_rows(
        path,
        lambda rec: CostProfile(
            config_id=str(rec["config"]),
            inference_vram=_optional_float(rec.get("inf_vram_gb")),
            training_time=_optional_float(rec.get("train_min")),
            training_vram=_optional_float(rec.get("train_vram_gb")),
            inference_vram_by_regime={
                k: float(v) for k, v in rec.get("inf_vram_by_regime", {}).items()
            },
        ),
    )
    for lineno, profile in rows:
        config_id = profile.config_id
        if config_id in profiles:
            raise IngestError(f"{path}:{lineno}: duplicate config {config_id!r}")
        if grid_ids is not None and config_id not in grid_ids:
            raise IngestError(f"{path}:{lineno}: unknown config {config_id!r}")
        profiles[config_id] = profile
    return profiles


def _optional_float(value) -> float | None:
    return None if value is None else float(value)
