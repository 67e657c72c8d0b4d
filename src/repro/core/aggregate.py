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
     model's accuracy-weighted vote (or plain MV for the baseline).
     Code+ votes on the driver (``aggregate_votes``), over the votes it
     already collected for scoring and the WS fit; Code, which collects
     no votes, votes in Spark (``aggregate_votes_spark``). Both apply
     one rule and give the same cells.
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


def sort_votes(
    votes: pd.DataFrame, doc_ids: list[str], candidates: list[Candidate],
) -> pd.DataFrame:
    """``votes``' rows in (doc, candidate) order, docs following
    ``doc_ids`` and each doc's votes ``candidates``, however the frame's
    rows are ordered. Every later step reads this one sort: the WS fit
    sums a doc's votes in this order, the validation sample is the
    first kept values, and the vote sums a cell's weights in it.
    ``run_functions`` collects in this order, so a collected frame is
    returned as it is, without a copy."""
    doc_pos = {d: i for i, d in enumerate(doc_ids)}
    fid_pos = {c.fid: j for j, c in enumerate(candidates)}
    key = (votes.doc_id.map(doc_pos) * len(fid_pos) + votes.fid.map(fid_pos)).to_numpy()
    if (key[1:] >= key[:-1]).all():
        return votes
    return votes.take(np.argsort(key, kind="stable"))


def group_votes(votes: pd.DataFrame, attrs: list[str]) -> Iterator[tuple[str, Votes]]:
    """``(attribute, votes)`` for each of ``attrs``, in order, from a
    ``sort_votes`` frame, whose order each doc's dict keeps. Each
    attribute's dicts are built only when it is reached, so the driver
    holds one attribute's copy."""
    a_pos = votes.attribute.map({a: k for k, a in enumerate(attrs)}).to_numpy()
    doc, fid, value = (votes[c].to_numpy() for c in ("doc_id", "fid", "value"))
    for k, a in enumerate(attrs):
        out: Votes = {}
        for i in np.flatnonzero(a_pos == k):
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


def _run_rank(keys: np.ndarray) -> np.ndarray:
    """Each element's position in its run of equal neighbours in ``keys``."""
    i = np.arange(len(keys))
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return i - np.maximum.accumulate(np.where(new, i, 0))


def aggregate_votes(votes: pd.DataFrame, plans: dict[str, AttrPlan]) -> pd.DataFrame:
    """Step 7 on the driver: ``aggregate_votes_spark``'s vote over a
    pandas votes frame.

    Keeps the votes of alive plans' kept functions, less ``""`` votes
    where the plan drops empties. Per (doc, attribute, value) it counts
    the votes (``n``) and sums their weights (``score``), keeps each
    cell's top-B values by (-n, value) and picks the first by
    (-score, value); a winning ``""`` is no value. A cell's weights sum
    one at a time in the frame's row order, as Spark's ``sum`` adds a
    doc's rows, so on a ``sort_votes`` frame the scores are Spark's to
    the bit; Python ``str`` order is Spark's UTF-8 byte order, so ties
    break alike. Returns ``(doc_id, attribute, value)``, attributes in
    ``plans`` order and docs sorted, with empty and no-vote cells absent.
    """
    alive = [p for p in plans.values() if p.alive]
    attr = pd.Index([p.attribute for p in alive]).get_indexer(votes.attribute)
    doc, fid, value = (votes[c].to_numpy() for c in ("doc_id", "fid", "value"))
    return pd.concat(
        [pd.DataFrame(columns=["doc_id", "attribute", "value"])]
        + [_vote_attribute(p, *(x[attr == j] for x in (doc, fid, value)))
           for j, p in enumerate(alive)],
        ignore_index=True,
    )


def _vote_attribute(plan: AttrPlan, doc: np.ndarray, fid: np.ndarray,
                    value: np.ndarray) -> pd.DataFrame:
    """``aggregate_votes`` for one attribute's votes, one cell per doc."""
    k = pd.Index(plan.kept).get_indexer(fid)
    keep = (k >= 0) & ~(plan.drop_empty & (value == ""))
    weight = np.array([float(plan.weights.get(f, 1.0)) for f in plan.kept])
    d, docs = pd.factorize(doc[keep], sort=True)
    v, vals = pd.factorize(value[keep], sort=True)
    keys, g = np.unique(d * len(vals) + v, return_inverse=True)
    n = np.bincount(g, minlength=len(keys))
    score = np.bincount(g, weights=weight[k[keep]], minlength=len(keys))
    g_doc, g_val = np.divmod(keys, max(len(vals), 1))

    # per-doc top-B buckets by (-n, value), then the winner by (-score, value)
    o = np.lexsort((g_val, -n, g_doc))
    o = o[_run_rank(g_doc[o]) < B]
    o = o[np.lexsort((g_val[o], -score[o], g_doc[o]))]
    win = o[_run_rank(g_doc[o]) == 0]
    win = win[vals[g_val[win]] != ""]
    return pd.DataFrame({"doc_id": docs[g_doc[win]], "attribute": plan.attribute,
                         "value": vals[g_val[win]]})


def aggregate_votes_spark(
    spark: SparkSession,
    votes: DataFrame,
    plans: dict[str, AttrPlan],
) -> DataFrame:
    """Step 7 in Spark: weighted vote per (doc, attribute), for votes
    that were never collected (EVAPORATE-CODE).

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
    "AggConfig", "AGGREGATORS", "AttrPlan", "Votes", "eval_labels", "sort_votes",
    "group_votes", "score_and_plan", "aggregate_votes", "aggregate_votes_spark",
]
