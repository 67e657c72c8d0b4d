"""The benchmark's workloads: what one pass runs and how its output is read.

Every workload is a closed loop: one driver process runs a pass, waits for
it to finish, then runs the next. A pass returns one ``RunOutput`` per
pipeline run, so the output check can count failed runs against attempted
ones. Lakes are keyed only by ``(setting, n_docs)``; the ``--seed`` of the
benchmark is the pipeline seed every run receives.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import direct, evaporate
from repro.core.metrics import pair_f1
from repro.harness import tables
from repro.lakes import registry

MODEL = "davinci"


def rows_digest(table: pd.DataFrame) -> str:
    """SHA-256 over the sorted (doc_id, attribute, value) rows."""
    rows = sorted(map(tuple, table[["doc_id", "attribute", "value"]].astype(str).values))
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()


@dataclass
class RunOutput:
    """One pipeline run of a pass, as the output check sees it."""

    digest: str
    tokens: int
    rows: int
    docs: int  # documents the run pushed through its pipeline


@dataclass
class PassOutput:
    runs: list[RunOutput]
    table: pd.DataFrame | None = None  # Code+/Direct output, scored after the pass
    f1: float | None = None  # pair F1 the harness already computed

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(r.digest for r in self.runs).encode()).hexdigest()

    @property
    def tokens(self) -> int:
        return sum(r.tokens for r in self.runs)

    @property
    def rows(self) -> int:
        return sum(r.rows for r in self.runs)

    @property
    def docs(self) -> int:
        return sum(r.docs for r in self.runs)


def _gold_f1(spark: SparkSession, table: pd.DataFrame, lake) -> float:
    pred = spark.createDataFrame(table[["doc_id", "attribute", "value"]]) if len(table) else \
        spark.createDataFrame([], schema="doc_id string, attribute string, value string")
    return pair_f1(pred, spark.createDataFrame(lake.gold)).f1


class CodePlusFDA:
    name = "codeplus-fda"
    why = ("Code+ OpenIE with schema synthesis on long FDA reports: 160 candidates "
           "per doc load execute, aggregate and ws plus the repeated MockLLM builds")
    setting, n_docs = "fda", 400

    def config(self) -> str:
        return f"{self.setting}:{self.n_docs}"

    def lakes(self) -> list[tuple[str, int]]:
        return [(self.setting, self.n_docs)]

    def run_pass(self, spark: SparkSession, seed: int) -> PassOutput:
        lake = registry.make_lake(self.setting, self.n_docs)
        res = evaporate.run_code_plus(spark, lake, MODEL, seed)
        run = RunOutput(rows_digest(res.table), res.tokens, len(res.table), lake.n_docs)
        return PassOutput([run], table=res.table)

    def score(self, spark: SparkSession, out: PassOutput) -> float:
        return _gold_f1(spark, out.table, registry.make_lake(self.setting, self.n_docs))


class DirectNBA(CodePlusFDA):
    name = "direct-nba"
    why = ("Direct OpenIE on NBA pages: chunking plus one simulated LLM call per chunk "
           "in Spark workers; never touches synthesis, execute or ws")
    setting, n_docs = "nba", 1500

    def run_pass(self, spark: SparkSession, seed: int) -> PassOutput:
        lake = registry.make_lake(self.setting, self.n_docs)
        res = direct.run_direct(spark, lake, MODEL, seed)
        run = RunOutput(rows_digest(res.table), res.tokens, len(res.table), res.n_docs)
        return PassOutput([run], table=res.table)


class TablesSmall:
    name = "tables-small"
    why = ("Table 1 then Table 4 on a small lake: per-call fixed costs dominate, the same "
           "lake goes through prepare_code 3 times and one vote set is re-aggregated 4 ways")
    groups = ("fda",)
    n_docs = 40

    def cfg(self, seed: int) -> tables.HarnessConfig:
        return tables.HarnessConfig(
            n_docs=self.n_docs, seed=seed, sample_size=10, sites_per_domain=1,
            groups=list(self.groups),
        )

    def config(self) -> str:
        return f"{','.join(self.groups)}:{self.n_docs}:sites=1"

    def lakes(self) -> list[tuple[str, int]]:
        cfg = self.cfg(0)
        return [(s, cfg.n_docs) for g in cfg.groups for s in tables._settings(cfg, g)]

    def run_pass(self, spark: SparkSession, seed: int) -> PassOutput:
        # Each Code+ run of the harness ends in finish_code_plus; a tap on
        # it collects the RunResults the tables are built from.
        runs: list[RunOutput] = []
        finish = evaporate.finish_code_plus

        def tap(spark_, art, *args, **kwargs):
            res = finish(spark_, art, *args, **kwargs)
            runs.append(RunOutput(rows_digest(res.table), res.tokens, len(res.table),
                                  art.lake.n_docs if art.doc_ids is None else len(art.doc_ids)))
            return res

        evaporate.finish_code_plus = tap
        try:
            cfg = self.cfg(seed)
            t1 = tables.table1(spark, cfg)
            t4 = tables.table4(spark, cfg)
        finally:
            evaporate.finish_code_plus = finish
        frames = (t1.to_csv(index=False) + t4.to_csv(index=False)).encode()
        runs.append(RunOutput(hashlib.sha256(frames).hexdigest(), 0, len(t1) + len(t4), 0))
        avg = t1[t1.source == "Average"].iloc[0]
        return PassOutput(runs, f1=float(avg.open_f1) / 100)

    def score(self, spark: SparkSession, out: PassOutput) -> float:
        return out.f1


WORKLOADS = {w.name: w for w in (CodePlusFDA(), DirectNBA(), TablesSmall())}
