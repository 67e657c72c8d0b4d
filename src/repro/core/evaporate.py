"""End-to-end orchestration of the three EVAPORATE implementations.

``run_direct`` lives in ``direct.py``; this module wires the code-path
pipelines: schema synthesis -> candidate generation -> scale-out function
execution (Spark) -> Algorithm-1 aggregation. ``prepare_code`` computes
the shared artifacts once so the Table-4 ablation can re-aggregate the
same votes under MV / WS / WS+Filter / WS+Abstain+Filter without
re-synthesizing anything.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import aggregate as agg
from repro.core.schema import (N_SCHEMA_SAMPLE, SchemaResult, sample_doc_ids,
                               synthesize_schema)
from repro.core.synthesis import Candidate, generate_candidates
from repro.core.execute import run_functions
from repro.lakes.base import DataLake
from repro.llm.mock_llm import MockLLM
from repro.llm.tokens import TokenLedger

N_FN_SAMPLE = 5  # docs whose chunks seed function synthesis (§4.4.1)


@dataclass
class RunResult:
    """Structured view + provenance for one pipeline run."""

    table: pd.DataFrame  # (doc_id, attribute, value)
    attrs: list[str]
    ledger: TokenLedger
    schema: SchemaResult | None = None
    plans: dict[str, agg.AttrPlan] = field(default_factory=dict)

    @property
    def tokens(self) -> int:
        return self.ledger.total


@dataclass
class CodeArtifacts:
    """Everything the code pipelines share before aggregation: driver
    data only, no Spark state."""

    lake: DataLake
    llm: MockLLM
    attrs: list[str]
    candidates: list[Candidate]
    votes_all: pd.DataFrame  # (doc_id, attribute, fid, value), every vote
    labels: dict[str, dict[str, str]]  # attr -> doc -> LLM F label
    eval_ids: list[str]
    doc_ids: list[str] | None
    ledger: TokenLedger
    schema: SchemaResult | None


def _schema_attrs(
    lake: DataLake, llm: MockLLM, given_attrs: list[str] | None,
    ledger: TokenLedger,
) -> tuple[list[str], SchemaResult | None]:
    """The given ClosedIE schema, or the head of the synthesized one."""
    if given_attrs is not None:
        return list(given_attrs), None
    schema = synthesize_schema(lake, llm)
    ledger.merge(schema.ledger)
    return schema.ranked_attrs[: len(lake.gold_attrs)], schema


def prepare_code(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    given_attrs: list[str] | None = None,
    doc_ids: list[str] | None = None,
) -> CodeArtifacts:
    """Schema (unless ClosedIE), candidates, votes, and D_eval labels."""
    ledger = TokenLedger()
    llm = MockLLM(lake, model, seed)
    attrs, schema = _schema_attrs(lake, llm, given_attrs, ledger)

    fn_ids = sample_doc_ids(lake, N_FN_SAMPLE)
    candidates = [
        c for a in attrs
        for c in generate_candidates(lake, llm, a, sample_ids=fn_ids, ledger=ledger)
    ]

    eval_ids = sample_doc_ids(lake, N_SCHEMA_SAMPLE)
    run_ids = None
    if doc_ids is not None:
        run_ids = sorted(set(doc_ids) | set(eval_ids))
    votes_all = run_functions(spark, lake, candidates, run_ids).toPandas()

    labels = {
        a: agg.eval_labels(lake, llm, a, eval_ids, ledger) for a in attrs
    }
    return CodeArtifacts(
        lake=lake, llm=llm, attrs=attrs, candidates=candidates,
        votes_all=votes_all, labels=labels,
        eval_ids=eval_ids, doc_ids=doc_ids, ledger=ledger, schema=schema,
    )


def finish_code_plus(
    spark: SparkSession,
    art: CodeArtifacts,
    aggregator: str = "ws_abstain_filter",
) -> RunResult:
    """Algorithm-1 aggregation on prepared artifacts -> structured view,
    all on the driver: no Spark job."""
    cfg = agg.AGGREGATORS[aggregator]
    ledger = TokenLedger().merge(art.ledger)

    votes = agg.VoteMatrix.build(art.votes_all, art.lake.doc_ids,
                                 [c.fid for c in art.candidates])
    plans: dict[str, agg.AttrPlan] = {}
    for a in art.attrs:
        plan = agg.score_and_plan(a, art.candidates, art.labels[a], votes, cfg)
        if plan.alive:
            ok, t = art.llm.validate_attribute(a, votes.sample(plan.kept, 5))
            ledger.add("validation", t)
            if not ok:
                plan.kept = []
        plans[a] = plan

    table = agg.aggregate_votes(votes.select(art.doc_ids), plans)
    return RunResult(
        table=table, attrs=[a for a in art.attrs if plans[a].alive],
        ledger=ledger, schema=art.schema, plans=plans,
    )


def run_code_plus(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    given_attrs: list[str] | None = None,
    doc_ids: list[str] | None = None,
) -> RunResult:
    """EVAPORATE-CODE+ end-to-end (§3.3)."""
    return finish_code_plus(spark, prepare_code(spark, lake, model, seed, given_attrs, doc_ids))


def run_code(
    spark: SparkSession,
    lake: DataLake,
    model: str = "davinci",
    seed: int = 0,
    given_attrs: list[str] | None = None,
    doc_ids: list[str] | None = None,
) -> RunResult:
    """EVAPORATE-CODE (§3.2): a single synthesized function per attribute,
    no scoring, no filtering, no ensembling."""
    ledger = TokenLedger()
    llm = MockLLM(lake, model, seed)
    attrs, schema = _schema_attrs(lake, llm, given_attrs, ledger)

    # one sample doc x one prompt style -> one candidate per attribute
    first_doc = sample_doc_ids(lake, 1)
    candidates = [
        c for a in attrs
        for c in generate_candidates(lake, llm, a, sample_ids=first_doc,
                                     styles=("A",), ledger=ledger)
    ]

    votes = run_functions(spark, lake, candidates, doc_ids)
    # Code+'s vote rule with one unit-weight voter per attribute, in Spark:
    # Code has no WS fit, so its votes are never collected
    plans = {
        c.attribute: agg.AttrPlan(c.attribute, e=0.0, scores={}, kept=[c.fid],
                                  weights={c.fid: 1.0}, drop_empty=True)
        for c in candidates
    }
    table = agg.aggregate_votes_spark(spark, votes, plans).toPandas()
    return RunResult(table=table, attrs=attrs, ledger=ledger, schema=schema)
