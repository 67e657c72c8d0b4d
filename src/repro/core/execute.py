"""Per-document Spark passes over the lake, and scale-out function execution.

``docs_frame`` builds each lake's ``(doc_id, text)`` frame once per lake
and live SparkContext and persists it: the executors render the text from
the lake's ``LakeSpec`` (``lakes.base.render_doc``), so the driver never
holds it. The frame has ``defaultParallelism`` partitions whatever the
text's byte size, each a contiguous range of docs in lake order, and is
unpersisted when its lake is garbage-collected.
``map_docs`` runs a per-document row function over that frame (a
``doc_ids`` selection is a filter on it) in a ``mapInPandas`` UDF:
function execution here, Direct OpenIE and ClosedIE in ``direct.py``. Function
execution is the cheap side of the paper's cost asymmetry: functions
process every document *without* the LLM. Their sources ride into the UDF
as strings and each distinct source is compiled once per partition and
applied once per document, so machine-written code never executes on the
driver; the output is a long votes DataFrame
``(doc_id, attribute, fid, value)`` consumed by Algorithm 1.
"""
from __future__ import annotations

import weakref
from collections.abc import Callable, Iterable

import pandas as pd
from pyspark import SparkContext
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

from repro.core.synthesis import Candidate, compile_candidate
from repro.lakes.base import DataLake, render_doc

DOCS_SCHEMA = "doc_id string, text string"
VOTES_SCHEMA = "doc_id string, attribute string, fid string, value string"

RowFn = Callable[[str, str], Iterable[tuple]]  # (doc_id, text) -> output rows

# lake -> (its SparkContext, its persisted docs frame). Lakes compare by
# identity, so a lake's entry leaves with it and is never served to another.
_FRAMES: weakref.WeakKeyDictionary[DataLake, tuple[SparkContext, DataFrame]] = \
    weakref.WeakKeyDictionary()


def _n_partitions(spark: SparkSession) -> int:
    """The docs frame's partition count, whatever the text's byte size."""
    return spark.sparkContext.defaultParallelism


def _live(sc: SparkContext) -> bool:
    return SparkContext._active_spark_context is sc


def _unpersist(sc: SparkContext, frame: DataFrame) -> None:
    """A lake's finalizer: unpersist its frame unless ``sc`` has stopped
    or a live lake's frame has the same plan. Lakes of equal specs render
    equal plans, and Spark caches a plan once: they share one cached
    frame, kept until the last of them goes."""
    if _live(sc) and not any(s is sc and f.sameSemantics(frame) for s, f in _FRAMES.values()):
        frame.unpersist()


def docs_frame(spark: SparkSession, lake: DataLake) -> DataFrame:
    """The lake's persisted ``(doc_id, text)`` frame, rendered on the
    executors on its first pass under this SparkContext. ``spark.range``
    splits the doc indices into ``_n_partitions`` contiguous ranges, so
    the frame has exactly that many partitions and reads in lake order."""
    sc = spark.sparkContext
    hit = _FRAMES.get(lake)
    if hit is not None and hit[0] is sc and _live(sc):
        return hit[1]
    spec = lake.spec  # the closure ships the spec, never the lake

    def render(batches):
        for batch in batches:
            index = batch.id.tolist()
            yield pd.DataFrame({"doc_id": [spec.doc_id(i) for i in index],
                                "text": [render_doc(spec, i) for i in index]})

    frame = spark.range(lake.n_docs, numPartitions=_n_partitions(spark)) \
        .mapInPandas(render, DOCS_SCHEMA).persist()
    _FRAMES[lake] = (sc, frame)
    # not at interpreter exit: the JVM may be gone by then
    weakref.finalize(lake, _unpersist, sc, frame).atexit = False
    return frame


def map_docs(spark: SparkSession, lake: DataLake, doc_ids: list[str] | None,
             setup: Callable[[], RowFn], schema: str) -> DataFrame:
    """The lazy frame of ``setup()``'s row function over the lake's docs
    (or ``doc_ids``), with ``schema``'s columns. ``setup`` runs once per
    partition on the executor. An empty selection is an empty frame."""
    sdf = docs_frame(spark, lake)
    if doc_ids is not None:
        sdf = sdf.filter(F.col("doc_id").isin(set(doc_ids)))
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
