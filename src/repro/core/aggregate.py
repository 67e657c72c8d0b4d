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

from dataclasses import dataclass, field

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


def score_and_plan(
    attr: str,
    candidates: list[Candidate],
    votes_eval: pd.DataFrame,
    labels: dict[str, str],
    votes_all: pd.DataFrame,
    cfg: AggConfig,
) -> AttrPlan:
    """Steps 3-5 + label-model fitting for one attribute."""
    e = (
        sum(1 for v in labels.values() if v) / len(labels) if labels else 0.0
    )
    ev = votes_eval[votes_eval.attribute == attr]
    vote_of = {(r.doc_id, r.fid): r.value for r in ev.itertuples()}
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
            vote = vote_of.get((d, fid), "")
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
        av = votes_all[(votes_all.attribute == attr) & votes_all.fid.isin(kept)]
        votes: dict[str, dict[str, str]] = {}
        for r in av.itertuples():
            val = r.value
            if not val and drop_empty:
                continue  # abstention
            votes.setdefault(r.doc_id, {})[r.fid] = val
        votes = {d: _top_b(v, B) for d, v in votes.items()}
        model = fit_label_model(votes, kept)
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

    Joins the votes DataFrame with the per-function weight table, applies
    the abstention rule and per-document top-B bucketing with window
    functions, and picks the argmax-weight value per cell. Returns
    ``(doc_id, attribute, value)`` with empty/no-vote cells absent.
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
    v = votes.join(wdf, on=["attribute", "fid"], how="inner")
    v = v.filter(~(F.col("drop_empty") & (F.col("value") == "")))

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
    "AggConfig", "AGGREGATORS", "AttrPlan", "eval_labels", "score_and_plan",
    "aggregate_votes_spark",
]
