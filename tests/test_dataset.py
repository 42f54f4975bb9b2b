import json

import pytest

from ragharness.analysis import Analysis, load_workspace
from ragharness.dataset import Chunk, load_corpus, load_qa
from ragharness.errors import HarnessError


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


CHUNKS = [
    {"chunk_id": "c1", "doc_id": "d1", "text": "alpha beta", "token_count": 2},
    {"chunk_id": "c2", "doc_id": "d1", "text": "gamma delta", "token_count": 2},
]
QA = [
    {
        "qa_id": "q1",
        "question": "What is alpha?",
        "gold_answer": "beta",
        "answer_type": "exact",
        "split": "test",
        "supporting_chunk_ids": ["c1"],
    },
    {
        "qa_id": "q2",
        "question": "What is gamma?",
        "gold_answer": "delta",
        "answer_type": "normal",
        "split": "train",
    },
]


def test_load_corpus_roundtrip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, CHUNKS)
    chunks = load_corpus(path)
    assert [(key, c.chunk_id) for key, c in chunks.items()] == [("c1", "c1"), ("c2", "c2")]
    assert chunks["c1"].text == "alpha beta"


def test_load_corpus_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, CHUNKS + [CHUNKS[0]])
    with pytest.raises(HarnessError, match="duplicate chunk_id"):
        load_corpus(path)


def test_load_corpus_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"chunk_id": "c1", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(HarnessError, match=":2"):
        load_corpus(path)


def test_load_corpus_and_qa_accept_unknown_fields(tmp_path):
    """A field the schema does not name is accepted and ignored."""
    corpus, qa = tmp_path / "corpus.jsonl", tmp_path / "qa.jsonl"
    write_jsonl(corpus, [dict(CHUNKS[0], source_url="https://example.org")])
    write_jsonl(qa, [dict(QA[0], annotator="a1")])
    assert load_corpus(corpus) == {"c1": Chunk("c1", "d1", "alpha beta")}
    (pair,) = load_qa(qa).values()
    assert (pair.qa_id, pair.supporting_chunk_ids) == ("q1", ("c1",))


def test_load_qa_roundtrip(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_jsonl(path, QA)
    pairs = load_qa(path)
    assert [(key, p.qa_id, p.answer_type, p.split) for key, p in pairs.items()] == [
        ("q1", "q1", "exact", "test"),
        ("q2", "q2", "normal", "train"),
    ]


def test_load_qa_rejects_bad_answer_type(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_jsonl(path, [dict(QA[0], answer_type="fuzzy")])
    with pytest.raises(HarnessError, match="answer_type"):
        load_qa(path)


def test_load_qa_rejects_duplicate_qa_id(tmp_path):
    path = tmp_path / "qa.jsonl"
    write_jsonl(path, [QA[0], QA[0]])
    with pytest.raises(HarnessError, match="duplicate qa_id"):
        load_qa(path)


def test_check_supporting_ids(tmp_path):
    """`Analysis.supporting` maps each QA pair that lists supporting chunk
    ids to them once every id names a corpus chunk, and otherwise names the
    first five pairs that list one that does not, in file order."""
    write_jsonl(tmp_path / "corpus.jsonl", CHUNKS[:1])
    (tmp_path / "workspace.json").write_text("{}", encoding="utf-8")

    def supporting(rows):
        write_jsonl(tmp_path / "qa.jsonl", rows)
        return Analysis(load_workspace(tmp_path), scored=False).supporting

    empty = dict(QA[1], qa_id="q3", supporting_chunk_ids=[])
    assert supporting([QA[1], QA[0], empty]) == {"q1": ("c1",)}
    with pytest.raises(HarnessError) as excinfo:
        supporting([QA[0], dict(QA[0], qa_id="q3", supporting_chunk_ids=["missing"])])
    assert str(excinfo.value) == "unresolved supporting_chunk_ids for: ['q3']"
    bad = [
        dict(QA[0], qa_id=f"b{i}", supporting_chunk_ids=["c1", f"missing{i}"])
        for i in (6, 2, 9, 0, 4, 7, 1)
    ]
    with pytest.raises(HarnessError) as excinfo:
        supporting([QA[1], *bad[:3], QA[0], *bad[3:]])
    assert str(excinfo.value) == (
        "unresolved supporting_chunk_ids for: ['b6', 'b2', 'b9', 'b0', 'b4']"
    )


def test_missing_file(tmp_path):
    """A corpus or QA file that is not there is an error naming it, which
    `analysis._input` raises before either loader opens the file."""
    (tmp_path / "workspace.json").write_text("{}", encoding="utf-8")
    for part, key in (("chunks", "corpus"), ("pairs", "qa")):
        with pytest.raises(HarnessError) as excinfo:
            getattr(Analysis(load_workspace(tmp_path)), part)
        assert str(excinfo.value) == f"{key} not found: {tmp_path / key}.jsonl"
