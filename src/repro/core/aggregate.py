"""Algorithm 1 (EVAPORATE-CODE+): score, filter, and ensemble functions.

Steps, mapped to the paper's pseudocode:
  2. Collect sample predictions — votes on D_eval + LLM F labels.
  3. Handle abstentions — estimate ``e`` = fraction of D_eval docs where
     F extracts a value; e > TAU means empty function outputs are
     *abstentions*, e <= TAU means they are *predictions of no-value*.
  4. Score functions — Text-F1 agreement with F's labels; in the high-e
     regime a function is scored only where it extracted a value (so
     high-precision / low-recall variant-specific functions survive).
  5. Filter — drop s_j <= 0.5 (worse-than-random, the WS assumption),
     keep the TOP_M best scorers.
  6. Collect votes — full-lake function execution (``execute.py``).
  7. Aggregation — per-document top-B vote bucketing, then the WS label
     model's accuracy-weighted vote (or plain MV for the baseline),
     executed as Spark groupBy/window over the votes DataFrame.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.direct import closed_doc
from repro.core.metrics import text_f1_strings
from repro.core.synthesis import Candidate
from repro.core.ws import B, fit_label_model
from repro.lakes.base import DataLake
from repro.llm.mock_llm import CHATBOT_REFUSAL, MockLLM
from repro.llm.tokens import TokenLedger


TAU = 0.5  # e above this: empty function outputs are abstentions
TOP_M = 10  # functions kept per attribute (the paper's top-10)


@dataclass(frozen=True)
class AggConfig:
    """Aggregation strategy (Table 4 ablation axes)."""

    method: str = "ws"  # "ws" | "mv"
    use_filter: bool = True
    use_abstain: bool = True


# Table 4 columns
AGGREGATORS: dict[str, AggConfig] = {
    "mv": AggConfig(method="mv", use_filter=False, use_abstain=False),
    "ws": AggConfig(method="ws", use_filter=False, use_abstain=False),
    "ws_filter": AggConfig(method="ws", use_filter=True, use_abstain=False),
    "ws_abstain_filter": AggConfig(method="ws", use_filter=True, use_abstain=True),
}


@dataclass
class AttrPlan:
    """Per-attribute outcome of scoring/filtering + learned vote weights."""

    attribute: str
    e: float
    scores: dict[str, float]
    kept: list[str]
    weights: dict[str, float]
    drop_empty: bool  # e > TAU and abstentions enabled

    @property
    def alive(self) -> bool:
        return bool(self.kept)


def eval_labels(
    lake: DataLake, llm: MockLLM, attr: str, eval_ids: list[str],
    ledger: TokenLedger,
) -> dict[str, str]:
    """LLM F extractions on D_eval — Algorithm 1's pseudo ground truth."""
    out: dict[str, str] = {}
    for d in eval_ids:
        v, t = closed_doc(llm, d, lake.doc_text[d], attr)
        ledger.add("eval_labels", t)
        out[d] = "" if v == CHATBOT_REFUSAL else v
    return out


Votes = dict[str, dict[str, str]]  # doc -> fid -> value, one attribute's votes


def group_votes(
    votes: pd.DataFrame, attrs: list[str], doc_ids: list[str],
    candidates: list[Candidate],
) -> Iterator[tuple[str, Votes]]:
    """``(attribute, votes)`` for each of ``attrs``, in order, from one
    sort of the frame; each attribute's dicts are built only when it is
    reached, so the driver holds one attribute's copy. Docs follow
    ``doc_ids`` and each doc's votes follow ``candidates``, however the
    frame's rows are ordered: the WS fit sums a doc's votes in dict
    order, and the validation sample is the first kept values."""
    attr_pos = {a: k for k, a in enumerate(attrs)}
    doc_pos = {d: i for i, d in enumerate(doc_ids)}
    fid_pos = {c.fid: j for j, c in enumerate(candidates)}
    a_pos = votes.attribute.map(attr_pos).to_numpy()
    key = (a_pos * len(doc_pos) + votes.doc_id.map(doc_pos)) * len(fid_pos) \
        + votes.fid.map(fid_pos)
    order = np.argsort(key.to_numpy(), kind="stable")
    bounds = np.searchsorted(a_pos[order], np.arange(len(attrs) + 1))
    doc, fid, value = (votes[c].to_numpy() for c in ("doc_id", "fid", "value"))
    for k, a in enumerate(attrs):
        out: Votes = {}
        for i in order[bounds[k]:bounds[k + 1]]:
            out.setdefault(doc[i], {})[fid[i]] = value[i]
        yield a, out


def score_and_plan(
    attr: str,
    candidates: list[Candidate],
    labels: dict[str, str],
    votes: Votes,
    cfg: AggConfig,
) -> AttrPlan:
    """Steps 3-5 + label-model fitting for one attribute, from its
    ``group_votes`` entry (which covers D_eval)."""
    e = (
        sum(1 for v in labels.values() if v) / len(labels) if labels else 0.0
    )
    fids = [c.fid for c in candidates if c.attribute == attr]

    # Scoring regime: without abstention-handling, functions are scored
    # only where they fired (the off-the-shelf assumption that empty
    # means abstain). With it, the regime is e-conditional: high-e keeps
    # fired-only precision scoring; low-e scores over all of D_eval so
    # empty-on-absent counts as correct and fire-on-absent is penalized.
    fired_only = (not cfg.use_abstain) or e > TAU
    scores: dict[str, float] = {}
    for fid in fids:
        ms: list[float] = []
        for d, lab in labels.items():
            vote = votes.get(d, {}).get(fid, "")
            if fired_only and not vote:
                continue
            ms.append(text_f1_strings(lab, vote))
        scores[fid] = sum(ms) / len(ms) if ms else 0.0

    if cfg.use_filter:
        kept = [f for f in fids if scores[f] > 0.5]
        kept = sorted(kept, key=lambda f: (-scores[f], f))[:TOP_M]
    else:
        kept = sorted(fids, key=lambda f: (-scores[f], f))[:TOP_M]

    # Voting: off-the-shelf MV/WS treat empty outputs as abstentions
    # (Snorkel convention). With abstention handling, empties become
    # *no-value predictions* in the low-e regime, letting the ensemble
    # actively suppress hallucinated values for absent attributes.
    drop_empty = e > TAU if cfg.use_abstain else True
    weights = {f: 1.0 for f in kept}
    if cfg.method == "ws" and kept:
        keep = set(kept)
        fit_votes: Votes = {}
        for d, v in votes.items():
            mine = {f: x for f, x in v.items() if f in keep and (x or not drop_empty)}
            if mine:  # a doc where every kept function abstains is left out
                fit_votes[d] = _top_b(mine, B)
        model = fit_label_model(fit_votes, kept)
        weights = {f: model.weight(f) for f in kept}
    return AttrPlan(attr, e, scores, kept, weights, drop_empty)


def _top_b(votes_for_doc: dict[str, str], b: int) -> dict[str, str]:
    """Keep votes in the doc's top-b value buckets; others abstain."""
    counts: dict[str, int] = {}
    for v in votes_for_doc.values():
        counts[v] = counts.get(v, 0) + 1
    keep = set(sorted(counts, key=lambda v: (-counts[v], v))[:b])
    return {f: v for f, v in votes_for_doc.items() if v in keep}


def aggregate_votes_spark(
    spark: SparkSession,
    votes: DataFrame,
    plans: dict[str, AttrPlan],
) -> DataFrame:
    """Step 7 at scale: weighted vote per (doc, attribute) in Spark.

    Joins the votes DataFrame with the broadcast per-function weight
    table, applies the abstention rule and per-document top-B bucketing
    with window functions, and picks the argmax-weight value per cell.
    Returns ``(doc_id, attribute, value)`` with empty/no-vote cells absent.
    """
    rows = [
        (p.attribute, fid, float(p.weights.get(fid, 1.0)), bool(p.drop_empty))
        for p in plans.values() if p.alive
        for fid in p.kept
    ]
    wdf = spark.createDataFrame(
        pd.DataFrame(rows, columns=["attribute", "fid", "weight", "drop_empty"]),
        schema="attribute string, fid string, weight double, drop_empty boolean",
    )
    # One shuffle: the weight table (at most attrs x TOP_M rows, whatever
    # the lake) is broadcast into the join, and the hash partitioning on
    # (doc_id, attribute) serves the groupBy and both windows.
    v = votes.join(F.broadcast(wdf), on=["attribute", "fid"], how="inner")
    v = v.filter(~(F.col("drop_empty") & (F.col("value") == "")))
    v = v.repartition("doc_id", "attribute")

    # per-doc top-b bucketing on raw counts
    cell = Window.partitionBy("doc_id", "attribute")
    counts = v.groupBy("doc_id", "attribute", "value").agg(
        F.count("*").alias("n"), F.sum("weight").alias("score")
    )
    bucketed = counts.withColumn(
        "bucket_rank",
        F.row_number().over(cell.orderBy(F.desc("n"), F.asc("value"))),
    ).filter(F.col("bucket_rank") <= B)

    winner = bucketed.withColumn(
        "rank",
        F.row_number().over(cell.orderBy(F.desc("score"), F.asc("value"))),
    ).filter(F.col("rank") == 1)
    return winner.filter(F.col("value") != "").select("doc_id", "attribute", "value")


__all__ = [
    "AggConfig", "AGGREGATORS", "AttrPlan", "Votes", "eval_labels", "group_votes",
    "score_and_plan", "aggregate_votes_spark",
]
