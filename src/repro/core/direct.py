"""EVAPORATE-DIRECT (§3.1): prompt the LLM on every chunk of every doc.

The distributed dataflow: documents live in a Spark DataFrame and an
Arrow ``mapInPandas`` UDF invokes the (simulated) LLM per chunk,
emitting long-format extraction rows. Attribute outputs are merged per
document, then ranked by document frequency so the head-k attributes
form the output table (§3.1 "Prioritizing common attributes").

Also hosts the ClosedIE direct extractor (prompt E.2) used for Table 2's
Direct rows and Table 7. ``openie_doc`` and ``closed_doc`` are the one
implementation of each prompt on a document: schema synthesis and
Algorithm 1's D_eval labels call them on the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.chunk import split_chunks
from repro.lakes.base import DataLake, rows_for_docs
from repro.llm.mock_llm import MockLLM
from repro.util import normalize_attr

_TOKENS_SENTINEL = "__doc_tokens__"
_OUT_SCHEMA = "doc_id string, attribute string, value string, tokens long"


@dataclass
class DirectResult:
    """Output of an Evaporate-Direct run."""

    table: pd.DataFrame  # (doc_id, attribute, value) — top-k attributes only
    ranked_attrs: list[str]  # all extracted attributes, frequency-ranked
    tokens: int  # total LLM tokens processed
    n_docs: int


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
    top_k: int | None = None,
) -> DirectResult:
    """Run the direct-extraction pipeline over the lake (or a doc sample)."""
    llm = MockLLM(lake, model, seed)
    docs = rows_for_docs(lake.docs, doc_ids)
    sdf = spark.createDataFrame(docs[["doc_id", "text"]])

    def extract(batches):
        for pdf in batches:
            rows = []
            for r in pdf.itertuples(index=False):
                merged, doc_tokens = openie_doc(llm, r.doc_id, r.text)
                rows.extend((r.doc_id, a, v, 0) for a, v in merged.items())
                rows.append((r.doc_id, _TOKENS_SENTINEL, "", doc_tokens))
            yield pd.DataFrame(rows, columns=["doc_id", "attribute", "value", "tokens"])

    raw = sdf.mapInPandas(extract, _OUT_SCHEMA)
    raw = raw.persist()
    try:
        tokens = raw.filter(F.col("attribute") == _TOKENS_SENTINEL).agg(
            F.sum("tokens").alias("t")).collect()[0]["t"] or 0
        ext = raw.filter(F.col("attribute") != _TOKENS_SENTINEL)
        freq = (
            ext.groupBy("attribute")
            .agg(F.countDistinct("doc_id").alias("n"))
            .orderBy(F.desc("n"), F.asc("attribute"))
        )
        ranked = [r["attribute"] for r in freq.collect()]
        k = top_k if top_k is not None else len(lake.gold_attrs)
        head = set(ranked[:k])
        table = ext.filter(F.col("attribute").isin(head)).toPandas()
    finally:
        raw.unpersist()
    return DirectResult(
        table=table[["doc_id", "attribute", "value"]],
        ranked_attrs=ranked,
        tokens=int(tokens),
        n_docs=len(docs),
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

    One LLM call per (doc, attribute) over the full document text — the
    expensive high-quality extractor the paper measures in Table 7 and
    uses as Algorithm 1's pseudo-labels.
    """
    llm = MockLLM(lake, model, seed)
    docs = rows_for_docs(lake.docs, doc_ids)
    sdf = spark.createDataFrame(docs[["doc_id", "text"]])
    attrs_b = list(attrs)

    def extract(batches):
        for pdf in batches:
            rows = []
            for r in pdf.itertuples(index=False):
                for a in attrs_b:
                    v, t = closed_doc(llm, r.doc_id, r.text, a)
                    rows.append((r.doc_id, a, v, t))
            yield pd.DataFrame(rows, columns=["doc_id", "attribute", "value", "tokens"])

    out = sdf.mapInPandas(extract, _OUT_SCHEMA).toPandas()
    return DirectResult(
        table=out[["doc_id", "attribute", "value"]],
        ranked_attrs=attrs_b,
        tokens=int(out.tokens.sum()),
        n_docs=len(docs),
    )
