"""EVAPORATE-DIRECT (§3.1): prompt the LLM on every chunk of every doc.

The distributed dataflow: ``execute.map_docs`` invokes the (simulated)
LLM per chunk in Spark workers, emitting long-format extraction rows with
attribute outputs merged per document. The driver collects them once and
ranks attributes by document frequency so the head-k attributes form the
output table (§3.1 "Prioritizing common attributes").

Also hosts the ClosedIE direct extractor (prompt E.2) used for Table 2's
Direct rows and Table 7. ``openie_doc`` and ``closed_doc`` are the one
implementation of each prompt on a document: schema synthesis and
Algorithm 1's D_eval labels call them on the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.chunk import split_chunks
from repro.core.execute import map_docs
from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM
from repro.util import normalize_attr

_OUT_SCHEMA = "doc_id string, attribute string, value string, tokens long"


@dataclass
class DirectResult:
    """Output of an Evaporate-Direct run."""

    table: pd.DataFrame  # (doc_id, attribute, value) — top-k attributes only
    ranked_attrs: list[str]  # all extracted attributes, frequency-ranked
    tokens: int  # total LLM tokens processed
    n_docs: int


def _n_docs(lake: DataLake, doc_ids: list[str] | None) -> int:
    """How many of the lake's docs ``doc_ids`` selects (all for None)."""
    return lake.n_docs if doc_ids is None else len(set(doc_ids).intersection(lake.doc_ids))


def openie_doc(llm: MockLLM, doc_id: str, text: str) -> tuple[dict[str, str], int]:
    """OpenIE prompt on every chunk of one doc: the first non-empty value
    per normalized attribute, and the tokens spent."""
    chunks = split_chunks(text)
    merged: dict[str, str] = {}
    tokens = 0
    for ci, ch in enumerate(chunks):
        pairs, t = llm.openie_extract(doc_id, ch, ci, len(chunks))
        tokens += t
        for a, v in pairs:
            na = normalize_attr(a)
            if na and v and na not in merged:
                merged[na] = v
    return merged, tokens


def closed_doc(llm: MockLLM, doc_id: str, text: str, attr: str) -> tuple[str, int]:
    """LLM F ClosedIE (prompt E.2): one attribute's value in one doc, read
    from the chunk that mentions it, and the tokens spent."""
    return llm.closed_extract(doc_id, attr, llm.mention_chunk(attr, text))


def run_direct(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    doc_ids: list[str] | None = None,
) -> DirectResult:
    """Run the direct-extraction pipeline over the lake (or a doc sample).

    One Spark job: the per-doc extractions, plus a null-attribute row per
    doc carrying its tokens, are collected once; the driver ranks
    attributes by (-distinct docs, name) and keeps the rows of the head
    k = |gold attributes|.
    """
    llm = MockLLM(lake, model, seed)

    def rows(doc_id: str, text: str) -> list[tuple]:
        merged, doc_tokens = openie_doc(llm, doc_id, text)
        return [(doc_id, a, v, 0) for a, v in merged.items()] + [(doc_id, None, None, doc_tokens)]

    raw = map_docs(spark, lake, doc_ids, lambda: rows, _OUT_SCHEMA).toPandas()
    ext = raw[raw.attribute.notna()]
    doc_counts = ext.groupby("attribute").doc_id.nunique()
    ranked = [a for a, _ in sorted(doc_counts.items(), key=lambda an: (-an[1], an[0]))]
    table = ext[ext.attribute.isin(ranked[: len(lake.gold_attrs)])].reset_index(drop=True)
    return DirectResult(
        table=table[["doc_id", "attribute", "value"]],
        ranked_attrs=ranked,
        tokens=int(raw.tokens.sum()),
        n_docs=_n_docs(lake, doc_ids),
    )


def run_closed_direct(
    spark: SparkSession,
    lake: DataLake,
    attrs: list[str],
    model: str = "davinci",
    seed: int = 0,
    doc_ids: list[str] | None = None,
) -> DirectResult:
    """ClosedIE with the LLM F: extract each given attribute per document.

    One LLM call per (doc, attribute) on the chunk that mentions the
    attribute (``closed_doc``) — the expensive high-quality extractor the
    paper measures in Table 7 and uses as Algorithm 1's pseudo-labels.
    """
    llm = MockLLM(lake, model, seed)
    attrs_b = list(attrs)

    def rows(doc_id: str, text: str) -> list[tuple]:
        return [(doc_id, a, *closed_doc(llm, doc_id, text, a)) for a in attrs_b]

    out = map_docs(spark, lake, doc_ids, lambda: rows, _OUT_SCHEMA).toPandas()
    return DirectResult(
        table=out[["doc_id", "attribute", "value"]],
        ranked_attrs=attrs_b,
        tokens=int(out.tokens.sum()),
        n_docs=_n_docs(lake, doc_ids),
    )
