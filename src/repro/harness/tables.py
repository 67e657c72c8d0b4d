"""Harness that regenerates every evaluation-section table.

Each ``tableN`` function runs the relevant pipelines over the synthetic
lakes and returns a pandas frame shaped like the paper's table, with the
paper's reported number alongside each measured one (columns suffixed
``_paper``). ``jobs/run_all.py [tableN ...]`` writes them to
``results/``; ``benchmarks/bench_tables.py`` times them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.lakes.base import rows_for_docs

GROUPS = list(registry.GROUPS)  # fda, enron, nba, swde_movie, swde_university


@dataclass
class HarnessConfig:
    """Scale/scope knobs shared by all tables."""

    n_docs: int = 60  # documents per setting
    model: str = "davinci"
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


# ---------------------------------------------------------------------------
# Table 1 — EVAPORATE-CODE+ quality (ClosedIE Text F1, OpenIE R/P/F1)

def table1(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    rows = []
    for group in cfg.groups:
        per_setting = []
        for s in _settings(cfg, group):
            lake = registry.make_lake(s, cfg.n_docs)
            # ClosedIE: gold schema given, Code+ populates the table
            closed = evaporate.run_code_plus(
                spark, lake, cfg.model, cfg.seed, given_attrs=lake.gold_attrs)
            cf1 = closed_text_f1(
                closed.table, lake.gold, lake.gold_attrs,
                sorted(lake.docs.doc_id))
            # OpenIE: end-to-end (schema identified by the system)
            opened = evaporate.run_code_plus(spark, lake, cfg.model, cfg.seed)
            prf = pair_f1(opened.table, lake.gold)
            per_setting.append({
                "closed_f1": 100 * cf1, "open_r": 100 * prf.recall,
                "open_p": 100 * prf.precision, "open_f1": 100 * prf.f1,
            })
        ref = paper.TABLE1[group]
        rows.append({
            "source": registry.GROUP_TITLES[group],
            "closed_f1": _mean(per_setting, "closed_f1"),
            "closed_f1_paper": ref["closed_f1"],
            "open_r": _mean(per_setting, "open_r"), "open_r_paper": ref["open_r"],
            "open_p": _mean(per_setting, "open_p"), "open_p_paper": ref["open_p"],
            "open_f1": _mean(per_setting, "open_f1"), "open_f1_paper": ref["open_f1"],
        })
    avg = {"source": "Average"}
    for k in ("closed_f1", "open_r", "open_p", "open_f1"):
        avg[k] = _mean(rows, k)
        avg[f"{k}_paper"] = paper.TABLE1["average"][k]
    rows.append(avg)
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 2 — SWDE vs SoTA baselines

def table2(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    rows = []
    for group in ("swde_movie", "swde_university"):
        per: dict[str, list[dict]] = {k: [] for k in ("dom", "direct", "code", "code_plus")}
        for s in _settings(cfg, group):
            lake = registry.make_lake(s, cfg.n_docs)
            all_ids = sorted(lake.docs.doc_id)
            # in-domain trained DOM baseline (test split only)
            preds, attrs, test_ids = run_dom_baseline(lake)
            gold_test = rows_for_docs(lake.gold, test_ids)
            dom_open = pair_f1(preds, gold_test)
            dom_closed = closed_text_f1(
                preds, gold_test, lake.gold_attrs, sorted(test_ids))
            per["dom"].append({"closed": 100 * dom_closed, "open": 100 * dom_open.f1})
            # Direct (10-doc sample; ClosedIE via prompt E.2)
            sample = sample_doc_ids(lake, cfg.sample_size)
            gold_s = rows_for_docs(lake.gold, sample)
            dr = run_direct(spark, lake, cfg.model, cfg.seed, doc_ids=sample)
            d_open = pair_f1(dr.table, gold_s)
            dcl = run_closed_direct(spark, lake, lake.gold_attrs, cfg.model,
                                    cfg.seed, doc_ids=sample)
            d_closed = closed_text_f1(dcl.table, gold_s, lake.gold_attrs, sample)
            per["direct"].append({"closed": 100 * d_closed, "open": 100 * d_open.f1})
            # Code (single function)
            c = evaporate.run_code(spark, lake, cfg.model, cfg.seed)
            c_open = pair_f1(c.table, lake.gold)
            c_cl = evaporate.run_code(spark, lake, cfg.model, cfg.seed,
                                      given_attrs=lake.gold_attrs)
            c_closed = closed_text_f1(c_cl.table, lake.gold, lake.gold_attrs, all_ids)
            per["code"].append({"closed": 100 * c_closed, "open": 100 * c_open.f1})
            # Code+
            cp = evaporate.run_code_plus(spark, lake, cfg.model, cfg.seed)
            cp_open = pair_f1(cp.table, lake.gold)
            cp_cl = evaporate.run_code_plus(spark, lake, cfg.model, cfg.seed,
                                           given_attrs=lake.gold_attrs)
            cp_closed = closed_text_f1(cp_cl.table, lake.gold, lake.gold_attrs, all_ids)
            per["code_plus"].append({"closed": 100 * cp_closed, "open": 100 * cp_open.f1})
        ref = paper.TABLE2[group]
        for system, key in (("DOM baseline (in-domain)", "dom"),
                            ("EVAPORATE-DIRECT", "direct"),
                            ("EVAPORATE-CODE", "code"),
                            ("EVAPORATE-CODE+", "code_plus")):
            pref = ref["dom_lm"] if key == "dom" else ref[key]
            rows.append({
                "benchmark": group, "system": system,
                "closed": _mean(per[key], "closed"), "closed_paper": pref["closed"],
                "open": _mean(per[key], "open"), "open_paper": pref["open"],
            })
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 3 — Direct vs Code+ quality and cost

def table3(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    rows = []
    for group in cfg.groups:
        per = []
        for s in _settings(cfg, group):
            lake = registry.make_lake(s, cfg.n_docs)
            sample = sample_doc_ids(lake, cfg.sample_size)
            gold_s = rows_for_docs(lake.gold, sample)
            dr = run_direct(spark, lake, cfg.model, cfg.seed, doc_ids=sample)
            d_f1 = pair_f1(dr.table, gold_s).f1
            d_tok_10k = per_10k_docs(dr.tokens, len(sample))
            cp = evaporate.run_code_plus(spark, lake, cfg.model, cfg.seed,
                                         doc_ids=sample)
            c_f1 = pair_f1(cp.table, gold_s).f1
            per.append({
                "direct_f1": 100 * d_f1, "direct_mtok": d_tok_10k / 1e6,
                "direct_usd": tokens_to_usd(d_tok_10k),
                "code_f1": 100 * c_f1, "code_mtok": cp.tokens / 1e6,
                "code_usd": tokens_to_usd(cp.tokens),
            })
        ref = paper.TABLE3[group]
        row = {"source": registry.GROUP_TITLES[group]}
        for k in ("direct_f1", "direct_mtok", "direct_usd",
                  "code_f1", "code_mtok", "code_usd"):
            row[k] = round(_mean(per, k), 2)
            row[f"{k}_paper"] = ref[k]
        row["delta_f1"] = round(row["code_f1"] - row["direct_f1"], 1)
        row["delta_f1_paper"] = ref["delta_f1"]
        row["reduction"] = round(row["direct_mtok"] / row["code_mtok"], 0) if row["code_mtok"] else float("inf")
        row["reduction_paper"] = ref["reduction"]
        rows.append(row)
    avg = {"source": "Average"}
    for k in ("direct_f1", "direct_mtok", "direct_usd", "code_f1", "code_mtok",
              "code_usd", "delta_f1", "reduction"):
        avg[k] = round(_mean(rows, k), 2)
        avg[f"{k}_paper"] = paper.TABLE3["average"][k]
    rows.append(avg)
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 4 — aggregation ablation (MV / WS / WS+Filter / WS+Abstain+Filter)

def table4(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    aggs = ("mv", "ws", "ws_filter", "ws_abstain_filter")
    rows = []
    for group in cfg.groups:
        per: dict[str, list[float]] = {a: [] for a in aggs}
        for s in _settings(cfg, group):
            lake = registry.make_lake(s, cfg.n_docs)
            art = evaporate.prepare_code(spark, lake, cfg.model, cfg.seed)
            try:
                for a in aggs:
                    res = evaporate.finish_code_plus(spark, art, aggregator=a)
                    per[a].append(100 * pair_f1(res.table, lake.gold).f1)
            finally:
                art.unpersist()
        ref = paper.TABLE4[group]
        row = {"source": registry.GROUP_TITLES[group]}
        for a in aggs:
            row[a] = round(sum(per[a]) / len(per[a]), 1)
            row[f"{a}_paper"] = ref[a]
        rows.append(row)
    avg = {"source": "Average"}
    for a in aggs:
        avg[a] = _mean(rows, a)
        avg[f"{a}_paper"] = paper.TABLE4["average"][a]
    rows.append(avg)
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 5 — alternate LLMs

def table5(spark: SparkSession, cfg: HarnessConfig | None = None,
           models: tuple[str, ...] = ("gpt4", "claude", "jumbo")) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    rows = []
    for model in models:
        row: dict = {"model": model}
        schema_f1s = []
        for group in cfg.groups:
            d_scores, c_scores = [], []
            for s in _settings(cfg, group):
                lake = registry.make_lake(s, cfg.n_docs)
                sample = sample_doc_ids(lake, cfg.sample_size)
                gold_s = rows_for_docs(lake.gold, sample)
                dr = run_direct(spark, lake, model, cfg.seed, doc_ids=sample)
                d_scores.append(100 * pair_f1(dr.table, gold_s).f1)
                cp = evaporate.run_code_plus(spark, lake, model, cfg.seed,
                                             doc_ids=sample)
                c_scores.append(100 * pair_f1(cp.table, gold_s).f1)
                schema_f1s.append(100 * schema_f1_at_k(
                    cp.schema.ranked_attrs, lake.gold_attrs))
            ref = paper.TABLE5[model]
            row[f"direct_{group}"] = round(sum(d_scores) / len(d_scores), 1)
            row[f"direct_{group}_paper"] = ref["direct"][group]
            row[f"code_{group}"] = round(sum(c_scores) / len(c_scores), 1)
            row[f"code_{group}_paper"] = ref["code_plus"][group]
        row["schema_f1"] = round(sum(schema_f1s) / len(schema_f1s), 1)
        row["schema_f1_paper"] = paper.TABLE5[model]["schema_f1"]
        rows.append(row)
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 6 — QA span-extractor ClosedIE baseline (Appendix C.1)

def table6(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    rows = []
    for group in cfg.groups:
        scores = []
        n_attrs = []
        for s in _settings(cfg, group):
            lake = registry.make_lake(s, cfg.n_docs)
            preds = run_qa_span_baseline(lake, cfg.seed)
            scores.append(100 * closed_text_f1(
                preds, lake.gold, lake.gold_attrs, sorted(lake.docs.doc_id)))
            n_attrs.append(len(lake.gold_attrs))
        rows.append({
            "source": registry.GROUP_TITLES[group],
            "n_attrs": round(sum(n_attrs) / len(n_attrs), 1),
            "closed_f1": round(sum(scores) / len(scores), 1),
            "closed_f1_paper": paper.TABLE6[group],
        })
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 7 — direct LLM F ClosedIE quality + cost (Appendix C.2)

def table7(spark: SparkSession, cfg: HarnessConfig | None = None) -> pd.DataFrame:
    cfg = cfg or HarnessConfig()
    rows = []
    for group in cfg.groups:
        per = []
        for s in _settings(cfg, group):
            lake = registry.make_lake(s, cfg.n_docs)
            sample = sample_doc_ids(lake, cfg.sample_size)
            res = run_closed_direct(spark, lake, lake.gold_attrs, cfg.model,
                                    cfg.seed, doc_ids=sample)
            f1 = closed_text_f1(res.table, rows_for_docs(lake.gold, sample),
                                lake.gold_attrs, sample)
            tok_10k = per_10k_docs(res.tokens, len(sample))
            per.append({"n_attrs": len(lake.gold_attrs), "f1": 100 * f1,
                        "mtok": tok_10k / 1e6, "usd": tokens_to_usd(tok_10k)})
        ref = paper.TABLE7[group]
        rows.append({
            "source": registry.GROUP_TITLES[group],
            "n_attrs": _mean(per, "n_attrs"), "n_attrs_paper": ref["n_attrs"],
            "f1": _mean(per, "f1"), "f1_paper": ref["f1"],
            "mtok": round(_mean(per, "mtok"), 2), "mtok_paper": ref["mtok"],
            "usd": round(_mean(per, "usd"), 0), "usd_paper": ref["usd"],
        })
    avg = {"source": "Average"}
    ref = paper.TABLE7["average"]
    for k in ("n_attrs", "f1", "mtok", "usd"):
        avg[k] = round(_mean(rows, k), 1)
        avg[f"{k}_paper"] = ref[k]
    rows.append(avg)
    return pd.DataFrame(rows)


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
