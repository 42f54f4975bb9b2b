"""Compare what two source trees of ragharness print and write, byte for byte.

Usage: python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [SEED]

PARENT_SRC and CHANGE_SRC are directories holding the ``ragharness`` package
(a checkout's ``src``). Each command line of COMMANDS runs in a fresh process
under each tree, on a copy of the bundled smoke workspace and on the
workspace of each benchmark workload (``perfbench/workloads.py``) generated
for SEED (default 1), on a copy of the ``ragged_coverage`` workspace
whose ``resamples`` is the paper's 1000 (each workload bootstraps 30 times),
and on copies of the smoke workspace with one fault of FAULTS each; three
of those faults (a negative VRAM cost, an unknown answer type and a chunk
text of whitespace alone) are each rejected by a record type's own check,
one (a supporting chunk id of no corpus chunk) by `Analysis.supporting`,
and three (a knob given as a string, a path given as a number and a level
of 1) by the knob type, path type and range checks of `load_workspace`,
so the wording and exit codes of those checks are compared in every command
line. The out/ directory is emptied before each command. The
exit codes, stdout, stderr (the workspace path masked) and the sha256 of
every file the command leaves under out/ must match. The script prints one
line per workspace and exits 1 on any difference.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "tests" / "data" / "smoke_workspace"
# The six benchmarked command lines, a one-regime front and a front over an
# axis the baselines have no cost for, which exits 1.
COMMANDS = (
    ("validate",),
    ("retrieve",),
    ("score",),
    ("stats",),
    ("pareto", "--axes", "latency,inference_vram"),
    ("report",),
    ("pareto", "--regime", "01_base__neutral"),
    ("pareto", "--axes", "latency,training_time"),
)
# Workspaces beyond the workloads: name -> (workload, the resamples it sets).
RESAMPLED = {"ragged_coverage_r1000": ("ragged_coverage", 1000)}
# Smoke copies with one fault each, which the checks where the workspace is
# read reject before retrieval sees it (retrieve reads no cost profile and
# no supporting chunk id):
# name -> {file: an edit of its JSON, or of its list of rows for a JSON-lines
# file}.
FAULTS = {
    "smoke_top_n_zero": {"workspace.json": lambda c: c.update(retrieve_top_n=0)},
    "smoke_k_rrf_zero": {"workspace.json": lambda c: c.update(k_rrf=0)},
    "smoke_dense_only_without_query_vector": {
        "embeddings.json": lambda e: e["queries"].pop("qa000"),
        "workspace.json": lambda c: c.update(regimes=[{"id": "d", "variant": "dense_only"}]),
    },
    "smoke_corpus_directory": {"workspace.json": lambda c: c.update(corpus="runs")},
    "smoke_corpus_without_token": {
        "corpus.jsonl": lambda rows: [row.update(text="!!! ...") for row in rows],
    },
    # Faults that a record type's own check rejects as the row is built.
    "smoke_cost_vram_negative": {"costs.jsonl": lambda rows: rows[0].update(inf_vram_gb=-1.0)},
    "smoke_answer_type_unknown": {"qa.jsonl": lambda rows: rows[0].update(answer_type="fuzzy")},
    "smoke_chunk_text_blank": {"corpus.jsonl": lambda rows: rows[0].update(text=" \t ")},
    "smoke_supporting_chunk_ghost": {
        "qa.jsonl": lambda rows: rows[0].update(supporting_chunk_ids=["ghost"]),
    },
    # One fault per branch of `load_workspace`'s pass over workspace.json.
    "smoke_resamples_string": {"workspace.json": lambda c: c.update(resamples="30")},
    "smoke_qa_number": {"workspace.json": lambda c: c.update(qa=5)},
    "smoke_level_one": {"workspace.json": lambda c: c.update(level=1)},
}


def edit_json(path: Path, edit) -> None:
    """Apply `edit` to the JSON document in `path`, or to the list of rows of
    a JSON-lines (``.jsonl``) file, and write it back."""
    text = path.read_text(encoding="utf-8")
    lines = path.suffix == ".jsonl"
    doc = [json.loads(line) for line in text.splitlines()] if lines else json.loads(text)
    edit(doc)
    text = "".join(json.dumps(row) + "\n" for row in doc) if lines else json.dumps(doc)
    path.write_text(text, encoding="utf-8")


def outputs(src, workspace: Path) -> dict:
    """{command line: (exit code, stdout, stderr, {out/ file: sha256})} of
    each of COMMANDS run under the package in `src`, with the workspace path
    in stdout and stderr shown as ``<ws>``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    env.pop("RAGHARNESS_WORKSPACE", None)
    out = workspace / "out"
    mask = (str(workspace).encode(), b"<ws>")
    results = {}
    for argv in COMMANDS:
        shutil.rmtree(out, ignore_errors=True)
        done = subprocess.run(
            [sys.executable, "-m", "ragharness.cli", "--workspace", str(workspace), *argv],
            cwd=workspace.parent,
            env=env,
            capture_output=True,
            timeout=600,
        )
        files = {
            path.relative_to(workspace).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        results[" ".join(argv)] = (
            done.returncode, done.stdout.replace(*mask), done.stderr.replace(*mask), files
        )
    shutil.rmtree(out, ignore_errors=True)
    return results


def differences(parent: dict, change: dict) -> list[str]:
    """One line per exit code, stream or out/ file that differs between two
    `outputs` results."""
    found = []
    for command, (code, stdout, stderr, files) in parent.items():
        code2, stdout2, stderr2, files2 = change[command]
        if code != code2:
            found.append(f"{command}: exit {code} != {code2}")
        for name, a, b in (("stdout", stdout, stdout2), ("stderr", stderr, stderr2)):
            if a != b:
                found.append(f"{command}: {name} differs")
        for name in sorted(files.keys() | files2.keys()):
            if files.get(name) != files2.get(name):
                found.append(f"{command}: {name} differs")
    return found


def compare(parent_src, change_src, workspace: Path) -> tuple[dict, list[str]]:
    """The parent's `outputs` on `workspace` and its differences from the
    change's."""
    parent = outputs(parent_src, workspace)
    return parent, differences(parent, outputs(change_src, workspace))


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_src, change_src = argv[:2]
    seed = int(argv[2]) if len(argv) == 3 else 1
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, generate

    failed = False
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for name in ("smoke", *WORKLOADS, *RESAMPLED, *FAULTS):
            workspace = Path(tmp) / name
            if name in WORKLOADS:
                generate(name, seed, workspace)
            elif name in RESAMPLED:
                workload, resamples = RESAMPLED[name]
                generate(workload, seed, workspace)
                edit_json(workspace / "workspace.json", lambda c: c.update(resamples=resamples))
            else:
                shutil.copytree(SMOKE, workspace)
                for file_name, edit in FAULTS.get(name, {}).items():
                    edit_json(workspace / file_name, edit)
            parent, found = compare(parent_src, change_src, workspace)
            n_files = sum(len(files) for *_, files in parent.values())
            if found:
                failed = True
                print(f"{name}: {len(found)} differences: {'; '.join(found)}")
            else:
                print(f"{name}: identical ({len(parent)} commands, {n_files} out/ files)")
            shutil.rmtree(workspace)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
