"""Per-document Spark passes over the lake, and scale-out function execution.

``map_docs`` builds the one docs frame ``(doc_id, text)`` and runs a
per-document row function over it in a ``mapInPandas`` UDF: function
execution here, Direct OpenIE and ClosedIE in ``direct.py``. Function
execution is the cheap side of the paper's cost asymmetry: functions
process every document *without* the LLM. Their sources ride into the UDF
as strings and each distinct source is compiled once per partition and
applied once per document, so machine-written code never executes on the
driver; the output is a long votes DataFrame
``(doc_id, attribute, fid, value)`` consumed by Algorithm 1.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StructType

from repro.core.synthesis import Candidate, compile_candidate
from repro.lakes.base import DataLake, rows_for_docs

VOTES_SCHEMA = "doc_id string, attribute string, fid string, value string"

RowFn = Callable[[str, str], Iterable[tuple]]  # (doc_id, text) -> output rows


def map_docs(spark: SparkSession, lake: DataLake, doc_ids: list[str] | None,
             setup: Callable[[], RowFn], schema: str) -> DataFrame:
    """The lazy frame of ``setup()``'s row function over the lake's docs
    (or ``doc_ids``), with ``schema``'s columns. ``setup`` runs once per
    partition on the executor. The docs frame has an explicit schema, so
    an empty selection is an empty frame."""
    docs = rows_for_docs(lake.docs, doc_ids)
    sdf = spark.createDataFrame(docs[["doc_id", "text"]], "doc_id string, text string")
    columns = StructType.fromDDL(schema).fieldNames()

    def apply(batches):
        row_fn = setup()
        for pdf in batches:
            rows = [row for d, t in zip(pdf.doc_id, pdf.text) for row in row_fn(d, t)]
            yield pd.DataFrame(rows, columns=columns)

    return sdf.mapInPandas(apply, schema)


def function_rows(candidates: list[Candidate]) -> Callable[[], RowFn]:
    """``run_functions``' per-partition setup. Candidates that share a
    ``(source, fn_name)`` (two sample docs of one formatting variant)
    compile once and run once per document; the value fans out to each
    of their fids, in candidate order."""
    sources = list(dict.fromkeys((c.source, c.fn_name) for c in candidates))
    slot = {s: i for i, s in enumerate(sources)}
    fanout = [(c.attribute, c.fid, slot[(c.source, c.fn_name)]) for c in candidates]

    def setup() -> RowFn:
        fns = [compile_candidate(Candidate("?", "?", "?", src, fn_name))
               for src, fn_name in sources]

        def row_fn(doc_id: str, text: str) -> list[tuple]:
            values = [fn(text) for fn in fns]
            return [(doc_id, attr, fid, values[i]) for attr, fid, i in fanout]

        return row_fn

    return setup


def run_functions(
    spark: SparkSession,
    lake: DataLake,
    candidates: list[Candidate],
    doc_ids: list[str] | None = None,
) -> DataFrame:
    """Apply every candidate function to every document -> votes DF,
    one ``(doc_id, attribute, fid, value)`` row per doc and candidate."""
    return map_docs(spark, lake, doc_ids, function_rows(candidates), VOTES_SCHEMA)
