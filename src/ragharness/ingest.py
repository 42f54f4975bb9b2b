"""Run-artifact ingestion: per-example predictions with latencies, judge
scores, per-config cost profiles, and the checksummed run manifest.

A run set is a directory with a ``manifest.json`` and one JSON-lines file per
(config, regime). All files are UTF-8 with LF terminators.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import HarnessError, as_float, as_id_list, as_int


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
        costs = {
            name: getattr(self, name)
            for name in ("inference_vram", "training_time", "training_vram")
        }
        costs.update(
            (f"inference_vram for regime {regime_id!r}", val)
            for regime_id, val in self.inference_vram_by_regime.items()
        )
        for name, val in costs.items():
            if val is not None and not (math.isfinite(val) and val >= 0):
                raise IngestError(
                    f"{self.config_id}: {name} must be finite and >= 0, got {val!r}"
                )

    def inference_vram_for(self, regime_id: str) -> float | None:
        return self.inference_vram_by_regime.get(regime_id, self.inference_vram)


@dataclass
class RunSet:
    records: list[RunRecord]
    # Judge rows that match no record, in file order.
    unmatched_scores: list[JudgeScore] = field(default_factory=list)

    def regimes(self) -> list[str]:
        return sorted({rec.regime_id for rec in self.records})


def file_checksum(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def read_json(path, error=IngestError) -> dict:
    """The JSON object that makes up a whole file. Bytes that are not UTF-8,
    malformed JSON and a document that is not an object are `error`s naming
    the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object")
    return doc


def read_rows(path, build, error=IngestError):
    """Yield (lineno, build(row)) for each row of a JSON-lines file; lines end
    at LF. A blank line is skipped; a line that is not UTF-8, a malformed
    line, a row that is not an object, a missing or unconvertible field and a
    typed error raised by `build` are `error`s naming file:line."""
    # Each line is decoded on its own, so an undecodable byte is reported on
    # its own line rather than somewhere in the block a text reader decodes.
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: malformed line: {exc}") from exc
            if not isinstance(row, dict):
                raise error(f"{path}:{lineno}: expected a JSON object")
            try:
                item = build(row)
            except KeyError as exc:
                raise error(f"{path}:{lineno}: missing field {exc}") from exc
            except HarnessError as exc:
                raise error(f"{path}:{lineno}: {exc}") from exc
            except (AttributeError, TypeError, ValueError, OverflowError) as exc:
                raise error(f"{path}:{lineno}: bad field value: {exc}") from exc
            yield lineno, item


def _judge_score(rec: dict) -> JudgeScore:
    return JudgeScore(
        config_id=str(rec["config"]),
        regime_id=str(rec["regime"]),
        qa_id=str(rec["qa_id"]),
        correctness=as_int(rec["correctness"], "correctness"),
        groundedness=as_int(rec["groundedness"], "groundedness"),
    )


def _run_record(rec: dict, judged: dict) -> RunRecord:
    """A run record with the judge score of its key popped from `judged`."""
    key = (str(rec["config"]), str(rec["regime"]), str(rec["qa_id"]))
    score = judged.pop(key, None)
    return RunRecord(
        config_id=key[0],
        regime_id=key[1],
        qa_id=key[2],
        predicted_answer=str(rec["answer"]),
        latency=as_float(rec["latency_s"], "latency_s"),
        context_chunk_ids=as_id_list(rec.get("context_ids"), "context_ids") or (),
        eval_top_k=as_int(rec.get("top_k", 2), "top_k"),
        correctness=score.correctness if score else None,
        groundedness=score.groundedness if score else None,
    )


def load_runs(path, qa_ids=None, judge_path=None) -> RunSet:
    """Load a run-set directory. `qa_ids`, when given, is the set of valid
    test-split ids; records referencing anything else are rejected.

    Judge scores from `judge_path`, when given, are joined onto the records by
    (config, regime, qa_id) as each record is built; a second judge row for a
    key is an error, and rows that match no record end up in
    `RunSet.unmatched_scores`."""
    judged: dict[tuple[str, str, str], JudgeScore] = {}
    if judge_path is not None:
        for lineno, score in read_rows(judge_path, _judge_score):
            key = (score.config_id, score.regime_id, score.qa_id)
            if key in judged:
                raise IngestError(f"{judge_path}:{lineno}: duplicate judge score {key}")
            judged[key] = score
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise IngestError(f"manifest not found: {manifest_path}")
    manifest = read_json(manifest_path)
    records: list[RunRecord] = []
    seen: set[tuple[str, str, str]] = set()
    top_k: dict[tuple[str, str], int] = {}
    for entry in manifest.get("files", []):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise IngestError(f"{manifest_path}: file entry without a path: {entry!r}")
        file_path = root / entry["path"]
        if not file_path.is_file():
            raise IngestError(f"manifest references missing file: {file_path}")
        expected = entry.get("sha256")
        if expected:
            actual = file_checksum(file_path)
            if actual != expected:
                raise IngestError(
                    f"checksum mismatch for {file_path}: {actual} != {expected}"
                )
        for lineno, record in read_rows(file_path, lambda rec: _run_record(rec, judged)):
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
    return RunSet(records=records, unmatched_scores=list(judged.values()))


def load_cost_profile(path) -> dict:
    """Load cost profiles keyed by config id; a config listed twice is an
    error."""
    profiles: dict[str, CostProfile] = {}
    rows = read_rows(
        path,
        lambda rec: CostProfile(
            config_id=str(rec["config"]),
            inference_vram=_optional_float(rec, "inf_vram_gb"),
            training_time=_optional_float(rec, "train_min"),
            training_vram=_optional_float(rec, "train_vram_gb"),
            inference_vram_by_regime={
                k: as_float(v, "inf_vram_by_regime")
                for k, v in rec.get("inf_vram_by_regime", {}).items()
            },
        ),
    )
    for lineno, profile in rows:
        config_id = profile.config_id
        if config_id in profiles:
            raise IngestError(f"{path}:{lineno}: duplicate config {config_id!r}")
        profiles[config_id] = profile
    return profiles


def _optional_float(rec: dict, key: str) -> float | None:
    value = rec.get(key)
    return None if value is None else as_float(value, key)
