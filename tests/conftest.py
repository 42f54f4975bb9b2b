import hashlib
import json
from pathlib import Path

import pytest

from ragharness.report import RegimeRow

FIXTURES = Path(__file__).parent / "fixtures"
SMOKE_WORKSPACE = Path(__file__).parent / "data" / "smoke_workspace"


def file_checksum(path) -> str:
    """The hex sha256 of the file at `path`, as a run manifest entry records
    it."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def refresh_dataset_checksums(workspace):
    """Record the sha256 of a smoke copy's corpus and QA file in its run
    manifest, as a run set made against the files as they now are would."""
    manifest_path = workspace / "runs" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for name in ("corpus", "qa"):
        manifest["dataset"][f"{name}_sha256"] = file_checksum(workspace / f"{name}.jsonl")
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def to_regime_row(rec) -> RegimeRow:
    return RegimeRow(
        config=rec["config"],
        f1=rec["f1"],
        f1_lo=rec["f1_lo"],
        f1_hi=rec["f1_hi"],
        grnd_pass=rec.get("grnd"),
        grnd_lo=rec.get("grnd_lo"),
        grnd_hi=rec.get("grnd_hi"),
        corr_pass=rec.get("corr"),
        corr_lo=rec.get("corr_lo"),
        corr_hi=rec.get("corr_hi"),
        latency=rec["lat"],
        inference_vram=rec.get("vram"),
    )


@pytest.fixture(scope="session")
def regime_tables():
    raw = load_fixture("regime_tables.json")
    return {rid: [to_regime_row(r) for r in rows] for rid, rows in raw.items()}


@pytest.fixture(scope="session")
def training_front_rows():
    return load_fixture("training_front.json")


@pytest.fixture(scope="session")
def topk_tables():
    raw = load_fixture("topk_tables.json")
    return {int(k): [to_regime_row(r) for r in rows] for k, rows in raw.items()}


@pytest.fixture(scope="session")
def error_label_records():
    return load_fixture("error_labels.json")
