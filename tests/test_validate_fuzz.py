"""Bounded fuzzing of `validate`: one mutated field or row in the smoke
workspace's corpus, QA, run, judge, cost or error-label file, one mutated
field of its embeddings or rerank scores, or one knob, regime-spec field or
input path of its workspace.json replaced by any JSON value, gives exit 0, or
exit 1 with one line on stderr, never a traceback. When `validate` accepts
mutated embeddings or rerank scores, `retrieve` must accept them too."""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ragharness.cli import main
from tests.conftest import SMOKE_WORKSPACE, file_checksum, refresh_dataset_checksums

RUN_FILE = "runs/3B_r8_qv_only__01_base__neutral.jsonl"
LABELS = "labels.jsonl"
LABEL_ROWS = [
    {"qa_id": "qa000", "config": "3B baseline", "class": "retrieval_miss"},
    {"qa_id": "qa001", "config": "3B r8 qv_only", "class": "overclaiming"},
]
TARGETS = ("corpus.jsonl", "qa.jsonl", RUN_FILE, "judge.jsonl", "costs.jsonl", LABELS)
ROWS = {
    name: [
        json.loads(line)
        for line in (SMOKE_WORKSPACE / name).read_text(encoding="utf-8").splitlines()
    ]
    for name in TARGETS
    if name != LABELS
}
ROWS[LABELS] = LABEL_ROWS
DOCUMENTS = {
    name: json.loads((SMOKE_WORKSPACE / name).read_text(encoding="utf-8"))
    for name in ("embeddings.json", "rerank.json")
}
KINDS = ("type", "sign", "fraction", "duplicate", "missing", "non_object")
FIELD_KINDS = ("type", "sign", "fraction", "missing")

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
NON_OBJECTS = st.one_of(SCALARS, st.lists(VALUES, max_size=3))


def _is_number(value):
    return isinstance(value, (int, float))


def _mutate(draw, value, kind):
    """`value` changed by one of the value kinds, drawing what it needs."""
    if kind == "type":
        return draw(VALUES)
    if kind == "sign":
        return -value if _is_number(value) else -1
    return value + 0.5 if _is_number(value) else 0.5


@st.composite
def mutated_file(draw):
    """(file name, its rows) with one field or row of one row mutated."""
    name = draw(st.sampled_from(TARGETS))
    rows = [dict(row) for row in ROWS[name]]
    i = draw(st.integers(0, len(rows) - 1))
    field = draw(st.sampled_from(sorted(rows[i])))
    kind = draw(st.sampled_from(KINDS))
    if kind == "duplicate":
        rows.insert(i + 1, dict(rows[i]))
    elif kind == "missing":
        del rows[i][field]
    elif kind == "non_object":
        rows[i] = draw(NON_OBJECTS)
    else:
        rows[i][field] = _mutate(draw, rows[i][field], kind)
    return name, rows


def _paths(node, path=()):
    """The key path of every value below `node`, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


PATHS = {name: list(_paths(doc)) for name, doc in DOCUMENTS.items()}
CONFIG = json.loads((SMOKE_WORKSPACE / "workspace.json").read_text(encoding="utf-8"))
CONFIG["labels"] = LABELS
CONFIG_FIELDS = sorted(key for key in CONFIG if key != "regimes")
REGIME_FIELDS = sorted(CONFIG["regimes"][0])


@st.composite
def mutated_document(draw):
    """(file name, its document) with one field, one whole vector or score
    table, or one vector component or score changed or removed."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[name])
    *parent_path, key = draw(st.sampled_from(PATHS[name]))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    kind = draw(st.sampled_from(FIELD_KINDS))
    if kind == "missing":
        del parent[key]
    else:
        parent[key] = _mutate(draw, parent[key], kind)
    return name, doc


@st.composite
def mutated_config(draw):
    """("workspace.json", the smoke config) with one knob or input path, or
    one field of its regime spec, set to an arbitrary JSON value."""
    config = copy.deepcopy(CONFIG)
    if draw(st.booleans()):
        parent, key = config, draw(st.sampled_from(CONFIG_FIELDS))
    else:
        parent, key = config["regimes"][0], draw(st.sampled_from(REGIME_FIELDS))
    parent[key] = draw(VALUES)
    return "workspace.json", config


def _write(ws: Path, name, content):
    path = ws / name
    if isinstance(content, list):
        path.write_text(
            "".join(json.dumps(row) + "\n" for row in content), encoding="utf-8"
        )
    else:
        path.write_text(json.dumps(content), encoding="utf-8")
    if name == RUN_FILE:
        manifest_path = ws / "runs" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for entry in manifest["files"]:
            if entry["path"] == path.name:
                entry["sha256"] = file_checksum(path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    elif name in ("corpus.jsonl", "qa.jsonl"):
        # So that the mutation, not the manifest's checksum of the file, is
        # what validate meets.
        refresh_dataset_checksums(ws)


def _run(ws: Path, command):
    """(exit code, stderr lines) of one command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--workspace", str(ws), command])
    return code, err.getvalue().splitlines()


def _check_mutation(mutation, then_retrieve=False):
    name, content = mutation
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(SMOKE_WORKSPACE, ws)
        _write(ws, "workspace.json", CONFIG)
        _write(ws, LABELS, LABEL_ROWS)
        _write(ws, name, content)
        code, err = _run(ws, "validate")
        if code == 0:
            assert err == []
            if then_retrieve:
                assert _run(ws, "retrieve") == (0, [])
        else:
            assert code == 1
            assert len(err) == 1, err
            assert err[0].startswith("validate: ")


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(mutated_file())
def test_validate_mutated_row_exits_cleanly(mutation):
    _check_mutation(mutation)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(mutated_document())
def test_validate_mutated_embeddings_or_rerank_exits_cleanly(mutation):
    _check_mutation(mutation, then_retrieve=True)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(mutated_config())
def test_validate_mutated_workspace_config_exits_cleanly(mutation):
    _check_mutation(mutation)
