"""Run-artifact ingestion: per-example predictions with latencies, judge
scores, per-config cost profiles, error labels, and the checksummed run
manifest.

A run set is a directory with a ``manifest.json`` and one JSON-lines file per
(config, regime). All files are UTF-8 with LF terminators.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

from .errors import HarnessError, _reject_stray, as_file_id, as_float, as_id_list, as_int, as_str


ERROR_CLASSES = (
    "retrieval_miss", "overclaiming", "incomplete_answer", "exact_precision_failure",
)


def _check_judge(name: str, val: int) -> int:
    if not 1 <= val <= 5:
        raise HarnessError(f"{name} out of 1..5: {val}")
    return val


class CostProfile(
    namedtuple(
        "CostProfile",
        "config_id inference_vram training_time training_vram inference_vram_by_regime",
    )
):
    """A config's costs. `inference_vram_by_regime` holds optional
    per-regime overrides of peak inference VRAM, a new dict when not
    given."""

    __slots__ = ()

    def __new__(
        cls,
        config_id: str,
        inference_vram: float | None = None,
        training_time: float | None = None,
        training_vram: float | None = None,
        inference_vram_by_regime: dict | None = None,
    ):
        if inference_vram_by_regime is None:
            inference_vram_by_regime = {}
        costs = {
            "inference_vram": inference_vram,
            "training_time": training_time,
            "training_vram": training_vram,
        }
        costs.update(
            (f"inference_vram for regime {regime_id!r}", val)
            for regime_id, val in inference_vram_by_regime.items()
        )
        for name, val in costs.items():
            if val is not None and not (math.isfinite(val) and val >= 0):
                raise HarnessError(
                    f"{config_id}: {name} must be finite and >= 0, got {val!r}"
                )
        return super().__new__(
            cls, config_id, inference_vram, training_time, training_vram, inference_vram_by_regime
        )

    def inference_vram_for(self, regime_id: str) -> float | None:
        return self.inference_vram_by_regime.get(regime_id, self.inference_vram)


class ErrorLabel(namedtuple("ErrorLabel", "qa_id config_id error_class")):
    __slots__ = ()

    def __new__(cls, qa_id: str, config_id: str, error_class: str):
        if error_class not in ERROR_CLASSES:
            raise HarnessError(f"unknown error class {error_class!r}")
        return super().__new__(cls, qa_id, config_id, error_class)


class Run:
    """The records of one (config, regime) as columns, each in record order:
    the order of the run files in the manifest, then of the lines in each.
    Every record of one qa_id, in any run, holds the same str object.
    `correctness` and `groundedness` hold None where no judge row matched;
    `f1s` and `exact` hold each answer's scores when the run set was loaded
    scored, and stay empty otherwise. No answer is kept. A column not given
    starts as a new empty list; `len` counts the records, and two runs are
    equal when their ids, top-k and columns are."""

    def __init__(
        self,
        config_id: str,
        regime_id: str,
        eval_top_k: int,
        qa_ids: list[str] | None = None,
        latencies: list[float] | None = None,
        correctness: list[int | None] | None = None,
        groundedness: list[int | None] | None = None,
        f1s: list[float] | None = None,
        exact: list[bool] | None = None,
    ):
        self.config_id, self.regime_id, self.eval_top_k = config_id, regime_id, eval_top_k
        self.qa_ids = [] if qa_ids is None else qa_ids
        self.latencies = [] if latencies is None else latencies
        self.correctness = [] if correctness is None else correctness
        self.groundedness = [] if groundedness is None else groundedness
        self.f1s = [] if f1s is None else f1s
        self.exact = [] if exact is None else exact

    def __len__(self) -> int:
        return len(self.qa_ids)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class RunSet(namedtuple("RunSet", "runs unmatched_scores", defaults=(0,))):
    """`runs` maps regime_id -> config_id -> Run, both levels in ascending
    id order; `unmatched_scores` counts the judge rows that match no
    record. The tuple is fixed; the runs in it are not."""

    __slots__ = ()

    def n_records(self) -> int:
        return sum(len(run) for by_config in self.runs.values() for run in by_config.values())


def _sha256(data: bytes) -> str:
    """The hex sha256 of a run file's bytes. hashlib is imported here rather
    than with the module because it loads OpenSSL's libcrypto, which only the
    commands that verify a run manifest need."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def read_json(path) -> dict:
    """The JSON object that makes up a whole file. Bytes that are not UTF-8,
    malformed JSON and a document that is not an object are HarnessErrors
    naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise HarnessError(f"{path}: not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise HarnessError(f"{path}: malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise HarnessError(f"{path}: malformed JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise HarnessError(f"{path}: expected a JSON object")
    return doc


def read_rows(path, build):
    """Yield (lineno, build(row)) for each row of a JSON-lines file; lines end
    at LF. A blank line is skipped; a line that is not UTF-8, a malformed
    line, a row that is not an object, a missing or unconvertible field and a
    HarnessError raised by `build` are HarnessErrors naming file:line."""
    with open(path, "rb") as fh:
        yield from _parse_rows(path, fh, build)


def _parse_rows(path, lines, build):
    """`read_rows` over `lines`, an iterable of the file's raw lines."""
    scan = json.JSONDecoder().scan_once
    # Each line is decoded on its own, so an undecodable byte is reported on
    # its own line rather than somewhere in the block a text reader decodes.
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise HarnessError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        if not line:
            continue
        # The scanner skips json.loads' per-call set-up; a line it does not
        # parse to its end goes to json.loads, which words the error.
        try:
            row, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end != len(line):
            try:
                row = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
                raise HarnessError(f"{path}:{lineno}: malformed line: {exc}") from exc
            except RecursionError as exc:
                raise HarnessError(f"{path}:{lineno}: malformed line: nested too deeply") from exc
        if not isinstance(row, dict):
            raise HarnessError(f"{path}:{lineno}: expected a JSON object")
        try:
            item = build(row)
        except KeyError as exc:
            raise HarnessError(f"{path}:{lineno}: missing field {exc}") from exc
        except HarnessError as exc:
            raise HarnessError(f"{path}:{lineno}: {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise HarnessError(f"{path}:{lineno}: bad field value: {exc}") from exc
        yield lineno, item


def read_keyed(path, build, key, noun) -> dict:
    """{key(row): row} for each row `build` makes of a JSON-lines file, in
    file order, read through `read_rows`; a key seen before is an error
    naming file:line, the `noun` and the key."""
    rows = {}
    for lineno, row in read_rows(path, build):
        row_key = key(row)
        if row_key in rows:
            raise HarnessError(f"{path}:{lineno}: duplicate {noun} {row_key!r}")
        rows[row_key] = row
    return rows


def _key(rec: dict) -> tuple[str, str, str]:
    """The (config, regime, qa_id) of a run or judge row."""
    config, regime, qa_id = rec["config"], rec["regime"], rec["qa_id"]
    return as_str(config, "config"), as_str(regime, "regime"), as_str(qa_id, "qa_id")


def _judge_row(rec: dict):
    """((config, regime, qa_id), correctness, groundedness) of a judge row."""
    return (
        _key(rec),
        _check_judge("correctness", as_int(rec["correctness"], "correctness")),
        _check_judge("groundedness", as_int(rec["groundedness"], "groundedness")),
    )


def _read_judge(path, canonical: dict) -> dict:
    """{(config, regime): {qa_id: (correctness, groundedness)}} of the rows
    of a judge file: one small index per run rather than one key tuple
    per row, each qa_id held as the str object `canonical` maps it to, when
    it maps it. A second row for a (config, regime, qa_id) is an error
    worded as `read_keyed` words a repeated key."""
    index: dict[tuple[str, str], dict] = {}
    for lineno, (key, correctness, groundedness) in read_rows(path, _judge_row):
        by_qa_id = index.setdefault(key[:2], {})
        if key[2] in by_qa_id:
            raise HarnessError(f"{path}:{lineno}: duplicate judge score {key!r}")
        by_qa_id[canonical.get(key[2], key[2])] = (correctness, groundedness)
    return index


def _run_row(rec: dict):
    """(key, answer, latency, top_k) of a run row, where key is (config,
    regime, qa_id). `context_ids` is checked but not kept: no analysis reads
    it."""
    key = _key(rec)
    as_file_id(key[1], "regime")
    answer = as_str(rec["answer"], "answer")
    latency = as_float(rec["latency_s"], "latency_s")
    as_id_list(rec.get("context_ids"), "context_ids")
    top_k = as_int(rec.get("top_k", 2), "top_k")
    if not math.isfinite(latency) or latency < 0:
        raise HarnessError(f"({key[0]}, {key[1]}, {key[2]}): bad latency")
    if top_k < 1:
        raise HarnessError(f"top_k must be positive, got {top_k}")
    return key, answer, latency, top_k


_UNJUDGED = (None, None)


def _read_verified(manifest_path, label, file_path, expected) -> bytes:
    """The bytes of `file_path`, whose sha256 the manifest gives as
    `expected` under `label`; they must match."""
    if not isinstance(expected, str) or not expected:
        raise HarnessError(f"{manifest_path}: {label} must be a non-empty string, got {expected!r}")
    if not file_path.is_file():
        raise HarnessError(f"manifest references missing file: {file_path}")
    data = file_path.read_bytes()
    actual = _sha256(data)
    if actual != expected:
        raise HarnessError(f"checksum mismatch for {file_path}: {actual} != {expected}")
    return data


def load_runs(path, gold, judge_path=None, datasets=None, scored=False) -> RunSet:
    """Load a run-set directory into one `Run` per (config, regime), grouped
    by regime. `gold` maps each test-split qa_id to its gold answer; a record
    of any other qa_id is rejected, and every record holds the str object
    that is `gold`'s key for its id. The manifest lists at
    least one run file, the files hold at least one record, and every entry
    carries the sha256 its file must match. `datasets` maps a dataset name
    (``corpus``, ``qa``) to the file read for it, which must match the
    manifest's ``dataset.<name>_sha256`` when the manifest gives one; the
    manifest's ``dataset`` object holds no other key.

    Judge scores from `judge_path`, when given, are joined onto the records by
    (config, regime, qa_id) as each record is read; a second judge row for a
    key is an error, and the rows that match no record are counted in
    `RunSet.unmatched_scores`. When `scored`, each answer is scored against
    its gold answer by `metrics.token_f1` and `metrics.exact_match` as its
    record is read, filling the run's `f1s` and `exact` columns."""
    # qa_id -> the one str object that every record of that id holds.
    canonical = {qa_id: qa_id for qa_id in gold}
    if scored:
        from . import metrics

        # Looked up as the load starts, so that a wrapper put in place of
        # either (a tracer's, a test's) is the one called.
        token_f1, exact_match = metrics.token_f1, metrics.exact_match
    judged = _read_judge(judge_path, canonical) if judge_path is not None else {}
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise HarnessError(f"manifest not found: {manifest_path}")
    manifest = read_json(manifest_path)
    files = manifest.get("files", [])
    if not isinstance(files, list):
        raise HarnessError(f"{manifest_path}: files must be a list, got {files!r}")
    if not files:
        raise HarnessError(f"{manifest_path}: lists no run files")
    checksums = manifest.get("dataset", {})
    if not isinstance(checksums, dict):
        raise HarnessError(f"{manifest_path}: dataset must be an object, got {checksums!r}")
    # A misspelt key would leave its file unverified.
    _reject_stray(f"{manifest_path}: dataset", checksums, ("corpus_sha256", "qa_sha256"))
    for name, data_path in (datasets or {}).items():
        sha = f"{name}_sha256"
        if sha in checksums:
            _read_verified(manifest_path, f"dataset.{sha}", Path(data_path), checksums[sha])
    # (config, regime) -> (its Run, the qa_ids read for it, its judge index).
    groups: dict[tuple[str, str], tuple[Run, set, dict]] = {}
    for entry in files:
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise HarnessError(f"{manifest_path}: file entry without a path: {entry!r}")
        file_path = root / entry["path"]
        # One read serves the checksum and the rows.
        data = _read_verified(
            manifest_path, f"entry {entry['path']!r}: sha256", file_path, entry.get("sha256")
        )
        rows = _parse_rows(file_path, data.split(b"\n"), _run_row)
        for lineno, (key, answer, latency, top_k) in rows:
            group = groups.get(key[:2])
            if group is None:
                run = Run(key[0], key[1], top_k)
                group = groups[key[:2]] = (run, set(), judged.get(key[:2], {}))
            run, seen, judge = group
            if key[2] in seen:
                raise HarnessError(f"{file_path}:{lineno}: duplicate record {key}")
            if top_k != run.eval_top_k:
                raise HarnessError(
                    f"{file_path}:{lineno}: top_k {top_k} differs from "
                    f"top_k {run.eval_top_k} earlier in ({key[0]}, {key[1]})"
                )
            qa_id = canonical.get(key[2])
            if qa_id is None:
                raise HarnessError(
                    f"{file_path}:{lineno}: unknown qa_id {key[2]!r} (not a test-split question)"
                )
            seen.add(qa_id)
            correctness, groundedness = judge.pop(qa_id, _UNJUDGED)
            run.qa_ids.append(qa_id)
            run.latencies.append(latency)
            run.correctness.append(correctness)
            run.groundedness.append(groundedness)
            if scored:
                gold_answer = gold[qa_id]
                run.f1s.append(token_f1(answer, gold_answer))
                run.exact.append(exact_match(answer, gold_answer))
    if not groups:
        raise HarnessError(f"{manifest_path}: run files hold no records")
    grouped: dict[str, dict[str, Run]] = {}
    for config_id, regime_id in sorted(groups, key=lambda key: (key[1], key[0])):
        run = grouped.setdefault(regime_id, {})[config_id] = groups[config_id, regime_id][0]
        # The sum a regime table's mean latency divides: each latency is
        # finite, but their sum may not be.
        if not math.isfinite(sum(run.latencies)):
            raise HarnessError(
                f"({config_id}, {regime_id}): latency_s values sum to more than a float holds"
            )
    # The judge rows left in the index matched no record.
    return RunSet(runs=grouped, unmatched_scores=sum(map(len, judged.values())))


def load_cost_profile(path) -> dict:
    """Load cost profiles keyed by config id; a config listed twice is an
    error."""
    return read_keyed(
        path,
        lambda rec: CostProfile(
            config_id=as_str(rec["config"], "config"),
            inference_vram=_optional_float(rec, "inf_vram_gb"),
            training_time=_optional_float(rec, "train_min"),
            training_vram=_optional_float(rec, "train_vram_gb"),
            inference_vram_by_regime=_vram_by_regime(rec.get("inf_vram_by_regime", {})),
        ),
        lambda profile: profile.config_id,
        "config",
    )


def load_labels(path, run_set=None) -> list[ErrorLabel]:
    """The error labels of a JSON-lines file in file order: at least one, no
    row twice (a record may carry several distinct classes) and, given the
    run set, each (config, qa_id) a record of some regime. A fault names the
    file, and the line when there is one."""
    records: dict[str, set[str]] = {}
    for runs in run_set.runs.values() if run_set is not None else ():
        for config_id, run in runs.items():
            records.setdefault(config_id, set()).update(run.qa_ids)
    first_line = {}
    rows = read_rows(
        path,
        lambda rec: ErrorLabel(
            qa_id=as_str(rec["qa_id"], "qa_id"),
            config_id=as_str(rec["config"], "config"),
            error_class=as_str(rec["class"], "class"),
        ),
    )
    for lineno, label in rows:
        if label in first_line:
            raise HarnessError(
                f"{path}:{lineno}: duplicate of the label on line {first_line[label]}"
            )
        if run_set is not None and label.qa_id not in records.get(label.config_id, ()):
            raise HarnessError(
                f"{path}:{lineno}: no run record of config {label.config_id!r} "
                f"has qa_id {label.qa_id!r}"
            )
        first_line[label] = lineno
    if not first_line:
        raise HarnessError(f"{path}: holds no error labels")
    return list(first_line)


def _vram_by_regime(overrides) -> dict:
    """{regime id: VRAM} of a cost row's inf_vram_by_regime object."""
    if not isinstance(overrides, dict):
        raise HarnessError(f"inf_vram_by_regime must be an object, got {overrides!r}")
    return {k: as_float(v, "inf_vram_by_regime") for k, v in overrides.items()}


def _optional_float(rec: dict, key: str) -> float | None:
    value = rec.get(key)
    return None if value is None else as_float(value, key)
