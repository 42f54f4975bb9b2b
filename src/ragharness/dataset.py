"""Loading and validation of the documentation corpus and the QA benchmark.

Both files are UTF-8 JSON-lines: one record per line. Unknown fields are
accepted and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HarnessError, as_id_list, as_int, as_str
from .ingest import read_keyed

ANSWER_TYPES = ("exact", "normal")
SPLITS = ("train", "eval", "test")


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    text: str

    def __post_init__(self):
        if not self.chunk_id:
            raise HarnessError("chunk_id must be nonempty")
        if not self.text.strip():
            raise HarnessError(f"chunk {self.chunk_id!r}: text is empty")


@dataclass(frozen=True)
class QaPair:
    qa_id: str
    question: str
    gold_answer: str
    answer_type: str
    split: str
    supporting_chunk_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.qa_id:
            raise HarnessError("qa_id must be nonempty")
        if not self.question.strip():
            raise HarnessError(f"qa {self.qa_id!r}: question is empty")
        if not self.gold_answer.strip():
            raise HarnessError(f"qa {self.qa_id!r}: gold_answer is empty")
        if self.answer_type not in ANSWER_TYPES:
            raise HarnessError(
                f"qa {self.qa_id!r}: unknown answer_type {self.answer_type!r}"
            )
        if self.split not in SPLITS:
            raise HarnessError(f"qa {self.qa_id!r}: unknown split {self.split!r}")


def _chunk(rec: dict) -> Chunk:
    """The chunk of a corpus row. `token_count` is checked but not kept: no
    analysis reads it."""
    chunk = Chunk(
        chunk_id=as_str(rec["chunk_id"], "chunk_id"),
        doc_id=as_str(rec.get("doc_id", ""), "doc_id"),
        text=as_str(rec["text"], "text"),
    )
    if as_int(rec.get("token_count", 0), "token_count") < 0:
        raise HarnessError(f"chunk {chunk.chunk_id!r}: negative token_count")
    return chunk


def load_corpus(path) -> dict[str, Chunk]:
    """{chunk_id: Chunk} of a corpus file in record order, rejecting
    duplicates. The file exists (`analysis._input` checks it)."""
    return read_keyed(path, _chunk, lambda chunk: chunk.chunk_id, "chunk_id")


def _qa_pair(rec: dict) -> QaPair:
    return QaPair(
        qa_id=as_str(rec["qa_id"], "qa_id"),
        question=as_str(rec["question"], "question"),
        gold_answer=as_str(rec["gold_answer"], "gold_answer"),
        answer_type=as_str(rec["answer_type"], "answer_type"),
        split=as_str(rec["split"], "split"),
        supporting_chunk_ids=as_id_list(
            rec.get("supporting_chunk_ids"), "supporting_chunk_ids"
        ),
    )


def load_qa(path) -> dict[str, QaPair]:
    """{qa_id: QaPair} of a QA file in record order, rejecting duplicates.
    The file exists (`analysis._input` checks it)."""
    return read_keyed(path, _qa_pair, lambda pair: pair.qa_id, "qa_id")


def check_supporting_ids(pairs: dict[str, QaPair], chunks: dict[str, Chunk]) -> list[str]:
    """Return qa_ids whose supporting_chunk_ids reference missing chunks."""
    bad = []
    for pair in pairs.values():
        if pair.supporting_chunk_ids and any(
            cid not in chunks for cid in pair.supporting_chunk_ids
        ):
            bad.append(pair.qa_id)
    return bad
