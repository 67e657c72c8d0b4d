"""Harness that regenerates every evaluation-section table.

The paper reports each source group as the mean over its settings (§4),
so each ``tableN`` is a view over per-setting runs. Its ``measure(lake)``
runs the table's pipelines on one setting and returns a dict of scores;
``_per_setting`` applies it to every setting of a group; ``_vs_paper``
puts each key's mean next to the paper's number (``<key>_paper``);
``_source_rows`` and ``_with_average`` build the one-row-per-group layout
and the Average row. Only what is specific to a table stays in its
function. ``jobs/run_all.py [tableN ...]`` writes them to ``results/``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.dom_extractor import run_dom_baseline
from repro.baselines.qa_span import run_qa_span_baseline
from repro.core import evaporate
from repro.core.cost import per_10k_docs, tokens_to_usd
from repro.core.direct import run_closed_direct, run_direct
from repro.core.metrics import closed_text_f1, pair_f1, schema_f1_at_k
from repro.core.schema import sample_doc_ids
from repro.harness import paper
from repro.lakes import registry
from repro.lakes.base import DataLake, rows_for_docs

GROUPS = list(registry.GROUPS)  # fda, enron, nba, swde_movie, swde_university
MODEL = "davinci"  # text-davinci-003, the paper's main LLM
ALT_MODELS = ("gpt4", "claude", "jumbo")  # Table 5

Measure = Callable[[DataLake], dict]


@dataclass
class HarnessConfig:
    """Scale/scope knobs shared by all tables."""

    n_docs: int = 60  # documents per setting
    seed: int = 0
    sample_size: int = 10  # Direct evaluation sample (paper §4.3 Table 3)
    sites_per_domain: int | None = None  # None = all SWDE sites
    groups: list[str] = field(default_factory=lambda: list(GROUPS))


def _settings(cfg: HarnessConfig, group: str) -> list[str]:
    names = registry.GROUPS[group]
    if cfg.sites_per_domain is not None and group.startswith("swde"):
        names = names[: cfg.sites_per_domain]
    return names


def _mean(rows: list[dict], key: str) -> float:
    vals = [r[key] for r in rows if r.get(key) is not None]
    return round(sum(vals) / len(vals), 1) if vals else float("nan")


def _per_setting(cfg: HarnessConfig, group: str, measure: Measure) -> list[dict]:
    """``measure`` on each setting of ``group``, in registry order."""
    return [measure(registry.make_lake(s, cfg.n_docs)) for s in _settings(cfg, group)]


def _sample(cfg: HarnessConfig, lake: DataLake) -> tuple[list[str], pd.DataFrame]:
    """The Direct evaluation sample's doc ids and their gold rows."""
    ids = sample_doc_ids(lake, cfg.sample_size)
    return ids, rows_for_docs(lake.gold, ids)


def _vs_paper(rows: list[dict], ref: dict, keys: tuple[str, ...]) -> dict:
    """Each key's mean over ``rows`` next to the paper's number for it."""
    out = {}
    for k in keys:
        out[k] = _mean(rows, k)
        out[f"{k}_paper"] = ref[k]
    return out


def _source_rows(cfg: HarnessConfig, measure: Measure, ref: dict,
                 keys: tuple[str, ...]) -> list[dict]:
    """One row per source group of ``cfg``, against ``ref[group]``."""
    return [{"source": registry.GROUP_TITLES[g],
             **_vs_paper(_per_setting(cfg, g, measure), ref[g], keys)}
            for g in cfg.groups]


def _with_average(rows: list[dict], ref: dict, keys: tuple[str, ...]) -> pd.DataFrame:
    """The group rows plus their Average row, against ``ref["average"]``."""
    return pd.DataFrame(rows + [{"source": "Average",
                                 **_vs_paper(rows, ref["average"], keys)}])


# ---------------------------------------------------------------------------
# Table 1 — EVAPORATE-CODE+ quality (ClosedIE Text F1, OpenIE R/P/F1)

def table1(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()

    def measure(lake: DataLake) -> dict:
        # ClosedIE: gold schema given, Code+ populates the table
        closed = evaporate.run_code_plus(
            spark, lake, MODEL, cfg.seed, given_attrs=lake.gold_attrs)
        cf1 = closed_text_f1(
            closed.table, lake.gold, lake.gold_attrs, sorted(lake.doc_ids))
        # OpenIE: end-to-end (schema identified by the system)
        opened = evaporate.run_code_plus(spark, lake, MODEL, cfg.seed)
        prf = pair_f1(opened.table, lake.gold)
        return {"closed_f1": 100 * cf1, "open_r": 100 * prf.recall,
                "open_p": 100 * prf.precision, "open_f1": 100 * prf.f1}

    keys = ("closed_f1", "open_r", "open_p", "open_f1")
    return _with_average(_source_rows(cfg, measure, paper.TABLE1, keys),
                         paper.TABLE1, keys)


# ---------------------------------------------------------------------------
# Table 2 — SWDE vs SoTA baselines

_TABLE2_SYSTEMS = (  # (row label, measure key, paper.TABLE2 key)
    ("DOM baseline (in-domain)", "dom", "dom_lm"),
    ("EVAPORATE-DIRECT", "direct", "direct"),
    ("EVAPORATE-CODE", "code", "code"),
    ("EVAPORATE-CODE+", "code_plus", "code_plus"),
)


def table2(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()

    def measure(lake: DataLake) -> dict:
        def scores(opened: pd.DataFrame, closed: pd.DataFrame, gold: pd.DataFrame,
                   ids: list[str]) -> dict:
            return {"closed": 100 * closed_text_f1(closed, gold, lake.gold_attrs, ids),
                    "open": 100 * pair_f1(opened, gold).f1}

        all_ids = sorted(lake.doc_ids)
        # in-domain trained DOM baseline (test split only)
        preds, _, test_ids = run_dom_baseline(lake)
        dom = scores(preds, preds, rows_for_docs(lake.gold, test_ids), sorted(test_ids))
        # Direct (10-doc sample; ClosedIE via prompt E.2)
        sample, gold_s = _sample(cfg, lake)
        direct = scores(
            run_direct(spark, lake, MODEL, cfg.seed, doc_ids=sample).table,
            run_closed_direct(spark, lake, lake.gold_attrs, MODEL, cfg.seed,
                              doc_ids=sample).table,
            gold_s, sample)
        # Code (single function), then Code+
        code = scores(
            evaporate.run_code(spark, lake, MODEL, cfg.seed).table,
            evaporate.run_code(spark, lake, MODEL, cfg.seed,
                               given_attrs=lake.gold_attrs).table,
            lake.gold, all_ids)
        code_plus = scores(
            evaporate.run_code_plus(spark, lake, MODEL, cfg.seed).table,
            evaporate.run_code_plus(spark, lake, MODEL, cfg.seed,
                                    given_attrs=lake.gold_attrs).table,
            lake.gold, all_ids)
        return {"dom": dom, "direct": direct, "code": code, "code_plus": code_plus}

    rows = []
    for group in ("swde_movie", "swde_university"):
        per = _per_setting(cfg, group, measure)
        for system, key, paper_key in _TABLE2_SYSTEMS:
            rows.append({"benchmark": group, "system": system,
                         **_vs_paper([p[key] for p in per], paper.TABLE2[group][paper_key],
                                     ("closed", "open"))})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 3 — Direct vs Code+ quality and cost

def table3(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()

    def measure(lake: DataLake) -> dict:
        sample, gold_s = _sample(cfg, lake)
        dr = run_direct(spark, lake, MODEL, cfg.seed, doc_ids=sample)
        d_tok_10k = per_10k_docs(dr.tokens, len(sample))
        cp = evaporate.run_code_plus(spark, lake, MODEL, cfg.seed, doc_ids=sample)
        return {"direct_f1": 100 * pair_f1(dr.table, gold_s).f1,
                "direct_mtok": d_tok_10k / 1e6, "direct_usd": tokens_to_usd(d_tok_10k),
                "code_f1": 100 * pair_f1(cp.table, gold_s).f1,
                "code_mtok": cp.tokens / 1e6, "code_usd": tokens_to_usd(cp.tokens)}

    keys = ("direct_f1", "direct_mtok", "direct_usd", "code_f1", "code_mtok", "code_usd")
    rows, ratios = [], []
    for group in cfg.groups:
        runs = _per_setting(cfg, group, measure)
        ref = paper.TABLE3[group]
        row = {"source": registry.GROUP_TITLES[group], **_vs_paper(runs, ref, keys)}
        # delta_f1 compares the rounded means; reduction is the ratio of
        # the unrounded group means, rounded only for display
        row["delta_f1"] = round(row["code_f1"] - row["direct_f1"], 1)
        row["delta_f1_paper"] = ref["delta_f1"]
        direct, code = (sum(r[k] for r in runs) / len(runs) for k in ("direct_mtok", "code_mtok"))
        ratios.append(direct / code if code else float("inf"))
        row["reduction"] = round(ratios[-1], 0)
        row["reduction_paper"] = ref["reduction"]
        rows.append(row)
    table = _with_average(rows, paper.TABLE3, keys + ("delta_f1", "reduction"))
    # the Average's reduction: the mean of the unrounded group ratios
    table.loc[table.source == "Average", "reduction"] = round(sum(ratios) / len(ratios), 1)
    return table


# ---------------------------------------------------------------------------
# Table 4 — aggregation ablation (MV / WS / WS+Filter / WS+Abstain+Filter)

def table4(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    aggs = ("mv", "ws", "ws_filter", "ws_abstain_filter")

    def measure(lake: DataLake) -> dict:
        # one set of votes, re-aggregated four ways
        art = evaporate.prepare_code(spark, lake, MODEL, cfg.seed)
        return {a: 100 * pair_f1(evaporate.finish_code_plus(spark, art, aggregator=a).table,
                                 lake.gold).f1
                for a in aggs}

    return _with_average(_source_rows(cfg, measure, paper.TABLE4, aggs), paper.TABLE4, aggs)


# ---------------------------------------------------------------------------
# Table 5 — alternate LLMs

def table5(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    rows = []
    for model in ALT_MODELS:
        def measure(lake: DataLake) -> dict:
            sample, gold_s = _sample(cfg, lake)
            dr = run_direct(spark, lake, model, cfg.seed, doc_ids=sample)
            cp = evaporate.run_code_plus(spark, lake, model, cfg.seed, doc_ids=sample)
            return {"direct": 100 * pair_f1(dr.table, gold_s).f1,
                    "code": 100 * pair_f1(cp.table, gold_s).f1,
                    "schema_f1": 100 * schema_f1_at_k(cp.schema.ranked_attrs,
                                                      lake.gold_attrs)}

        ref = paper.TABLE5[model]
        row: dict = {"model": model}
        every = []  # schema F1@k is the mean over all settings of all groups
        for group in cfg.groups:
            per = _per_setting(cfg, group, measure)
            every += per
            for key, paper_key in (("direct", "direct"), ("code", "code_plus")):
                row[f"{key}_{group}"] = _mean(per, key)
                row[f"{key}_{group}_paper"] = ref[paper_key][group]
        rows.append({**row, **_vs_paper(every, ref, ("schema_f1",))})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 6 — QA span-extractor ClosedIE baseline (Appendix C.1)

def table6(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()

    def measure(lake: DataLake) -> dict:
        preds = run_qa_span_baseline(lake, cfg.seed)
        return {"n_attrs": len(lake.gold_attrs),
                "closed_f1": 100 * closed_text_f1(preds, lake.gold, lake.gold_attrs,
                                                  sorted(lake.doc_ids))}

    rows = []
    for group in cfg.groups:
        per = _per_setting(cfg, group, measure)
        rows.append({"source": registry.GROUP_TITLES[group], "n_attrs": _mean(per, "n_attrs"),
                     "closed_f1": _mean(per, "closed_f1"),
                     "closed_f1_paper": paper.TABLE6[group]})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 7 — direct LLM F ClosedIE quality + cost (Appendix C.2)

def table7(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()

    def measure(lake: DataLake) -> dict:
        sample, gold_s = _sample(cfg, lake)
        res = run_closed_direct(spark, lake, lake.gold_attrs, MODEL, cfg.seed,
                                doc_ids=sample)
        tok_10k = per_10k_docs(res.tokens, len(sample))
        return {"n_attrs": len(lake.gold_attrs),
                "f1": 100 * closed_text_f1(res.table, gold_s, lake.gold_attrs, sample),
                "mtok": tok_10k / 1e6, "usd": tokens_to_usd(tok_10k)}

    keys = ("n_attrs", "f1", "mtok", "usd")
    rows = _source_rows(cfg, measure, paper.TABLE7, keys)
    for row in rows:
        row["usd"] = round(row["usd"], 0)  # whole dollars, as the paper prints them
    return _with_average(rows, paper.TABLE7, keys)


def to_markdown(df: pd.DataFrame) -> str:
    """Render a harness frame as a GitHub-flavoured markdown table.

    Hand-rolled (``DataFrame.to_markdown`` needs the absent ``tabulate``).
    """
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.1f}"
        return str(v)

    cols = list(df.columns)
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(fmt(row[c]) for c in cols) + " |")
    return "\n".join(lines)
