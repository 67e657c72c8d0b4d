"""Per-document Spark passes over the lake, and scale-out function execution.

``map_docs`` builds the one docs frame ``(doc_id, text)`` and runs a
per-document row function over it in a ``mapInPandas`` UDF: function
execution here, Direct OpenIE and ClosedIE in ``direct.py``. Function
execution is the cheap side of the paper's cost asymmetry: functions
process every document *without* the LLM. Their sources ride into the UDF
as strings and are compiled once per partition, so machine-written code
never executes on the driver; the output is a long votes DataFrame
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


def run_functions(
    spark: SparkSession,
    lake: DataLake,
    candidates: list[Candidate],
    doc_ids: list[str] | None = None,
) -> DataFrame:
    """Apply every candidate function to every document -> votes DF."""
    cand_list = [(c.fid, c.attribute, c.source, c.fn_name) for c in candidates]

    def setup() -> RowFn:
        compiled = [
            (fid, attr, compile_candidate(Candidate(fid, attr, "?", src, fn_name)))
            for fid, attr, src, fn_name in cand_list
        ]
        return lambda doc_id, text: [(doc_id, attr, fid, fn(text)) for fid, attr, fn in compiled]

    return map_docs(spark, lake, doc_ids, setup, VOTES_SCHEMA)
