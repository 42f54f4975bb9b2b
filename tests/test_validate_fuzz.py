"""Bounded fuzzing of `validate`: one mutated field or row in the smoke
workspace's corpus, QA, run or judge file gives exit 0, or exit 1 with one
line on stderr, never a traceback."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ragharness.cli import main
from ragharness.ingest import file_checksum
from tests.conftest import SMOKE_WORKSPACE

RUN_FILE = "runs/3B_r8_qv_only__01_base__neutral.jsonl"
TARGETS = ("corpus.jsonl", "qa.jsonl", RUN_FILE, "judge.jsonl")
ROWS = {
    name: [
        json.loads(line)
        for line in (SMOKE_WORKSPACE / name).read_text(encoding="utf-8").splitlines()
    ]
    for name in TARGETS
}
KINDS = ("type", "sign", "fraction", "duplicate", "missing", "non_object")

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


@st.composite
def mutated_file(draw):
    """(file name, its rows) with one field or row of one row mutated."""
    name = draw(st.sampled_from(TARGETS))
    rows = [dict(row) for row in ROWS[name]]
    i = draw(st.integers(0, len(rows) - 1))
    field = draw(st.sampled_from(sorted(rows[i])))
    kind = draw(st.sampled_from(KINDS))
    value = rows[i][field]
    if kind == "type":
        rows[i][field] = draw(VALUES)
    elif kind == "sign":
        rows[i][field] = -value if _is_number(value) else -1
    elif kind == "fraction":
        rows[i][field] = value + 0.5 if _is_number(value) else 0.5
    elif kind == "duplicate":
        rows.insert(i + 1, dict(rows[i]))
    elif kind == "missing":
        del rows[i][field]
    else:
        rows[i] = draw(NON_OBJECTS)
    return name, rows


def _write(ws: Path, name, rows):
    path = ws / name
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    if name == RUN_FILE:
        manifest_path = ws / "runs" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for entry in manifest["files"]:
            if entry["path"] == path.name:
                entry["sha256"] = file_checksum(path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(mutated_file())
def test_validate_mutated_row_exits_cleanly(mutation):
    name, rows = mutation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(SMOKE_WORKSPACE, ws)
        _write(ws, name, rows)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--workspace", str(ws), "validate"])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, err.getvalue()
        assert lines[0].startswith("validate: ")
