"""Outside-in tracing of the repro layers, from the benchmark's own files.

``Tracer.install()`` replaces a layer's public function with a wrapper
that records a span (name, start, end, parent, pass id) and a few counts,
in every ``repro.*`` module namespace that binds the original object, so
calls made through ``from x import f`` are caught too. ``restore()`` puts
every original back. Nothing under ``src/`` is edited.

Spark DataFrames are lazy: ``run_functions`` and ``aggregate_votes_spark``
return before any work runs. Their wrappers persist and count the returned
frame inside the span, so the execution cost lands in the layer that
defines it rather than in the caller's collect. The caller then reads the
cached frame, so output and tokens are unchanged; ``end_pass`` unpersists
what the trace persisted.

A layer's self time is its span minus the part of that interval covered by
its child spans. Counting work done by a wrapper after the wrapped call
returns is recorded as a ``trace.hook`` span, so it is charged to
``trace.unattributed_s`` with the time outside every layer, not to the
parent layer. ``trace.layers_self_s`` plus ``trace.unattributed_s`` is the
traced pass.
"""
from __future__ import annotations

import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    pass_id: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload the layer should move). BENCHMARK.json's per_layer list is this
# table; a test keeps the two equal.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "lakes.build_s": ("s", "lower", "setup_s, all workloads"),
    "lakes.docs": ("count", "higher", "setup_s, all workloads"),
    "llm.init_calls": ("count", "lower", "pass_s on codeplus-fda and tables-small"),
    "llm.init_s": ("s", "lower", "pass_s on codeplus-fda and tables-small"),
    "schema.s": ("s", "lower", "pass_s on codeplus-fda and tables-small"),
    "schema.tokens": ("count", "lower", "llm_tokens on codeplus-fda and tables-small"),
    "synthesis.s": ("s", "lower", "pass_s on codeplus-fda"),
    "synthesis.candidates": ("count", "lower", "pass_s on codeplus-fda"),
    "synthesis.distinct_share": ("share", "higher", "pass_s on codeplus-fda"),
    "execute.s": ("s", "lower", "docs_per_s on codeplus-fda; none on direct-nba"),
    "execute.applications": ("count", "lower", "docs_per_s on codeplus-fda"),
    "execute.us_per_app": ("us", "lower", "docs_per_s on codeplus-fda"),
    "execute.empty_share": ("share", "lower", "docs_per_s on codeplus-fda"),
    "eval_labels.s": ("s", "lower", "pass_s on codeplus-fda"),
    "eval_labels.tokens": ("count", "lower", "llm_tokens on codeplus-fda"),
    "plan.s": ("s", "lower", "pass_s on codeplus-fda"),
    "plan.calls": ("count", "lower", "pass_s on codeplus-fda"),
    "plan.kept_share": ("share", "higher", "pair_f1 on codeplus-fda"),
    "vote.s": ("s", "lower", "pass_s on tables-small"),
    "vote.calls": ("count", "lower", "pass_s on tables-small"),
    "ws.s": ("s", "lower", "pass_s on codeplus-fda"),
    "ws.calls": ("count", "lower", "pass_s on codeplus-fda"),
    "ws.vote_docs": ("count", "lower", "driver_peak_rss_mb on codeplus-fda"),
    "evaporate.self_s": ("s", "lower", "driver_peak_rss_mb on codeplus-fda; pass_s on tables-small"),
    "evaporate.prepare_calls": ("count", "lower", "pass_s on tables-small"),
    "direct.s": ("s", "lower", "docs_per_s on direct-nba"),
    "direct.chunks": ("count", "higher", "docs_per_s on direct-nba"),
    "direct.tokens": ("count", "lower", "llm_tokens on direct-nba"),
    "direct.out_rows": ("count", "higher", "pair_f1 on direct-nba"),
    "metrics.s": ("s", "lower", "pass_s on tables-small"),
    "metrics.calls": ("count", "lower", "pass_s on tables-small"),
    "harness.table1_s": ("s", "lower", "pass_s on tables-small"),
    "harness.table4_s": ("s", "lower", "pass_s on tables-small"),
    "spark.jobs": ("count", "lower", "pass_s on tables-small"),
    "trace.layers_self_s": ("s", "lower", "pass_s, all workloads"),
    "trace.unattributed_s": ("s", "lower", "pass_s, all workloads"),
    "trace.traced_pass_s": ("s", "lower", "pass_s, all workloads"),
    "trace.overhead_s": ("s", "lower", "none: cost of tracing itself"),
}

# Span names whose self time makes up evaporate.self_s.
EVAPORATE_SPANS = ("prepare_code", "finish_code_plus", "run_code_plus")


@dataclass
class Tracer:
    """Spans and counts, kept in memory, for the layers wrapped by ``install``."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[tuple[str, str], float] = field(default_factory=dict)
    pass_id: str = "setup"
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _persisted: list[object] = field(default_factory=list)
    _chunks: dict[tuple, int] = field(default_factory=dict)

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, i: int) -> None:
        self.spans[i].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def count(self, key: str, n: float = 1) -> None:
        k = (self.pass_id, key)
        self.counts[k] = self.counts.get(k, 0) + n

    # -- passes ---------------------------------------------------------
    def begin_pass(self, pass_id: str) -> None:
        self.pass_id = pass_id

    def end_pass(self) -> None:
        for df in self._persisted:
            df.unpersist()
        self._persisted.clear()

    # -- wrapping -------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, hook=None, force=False):
        """Replace ``owner.attr``, and every repro alias of it, by a traced
        wrapper. ``hook(arguments, result)`` counts after the span closes."""
        orig = getattr(owner, attr)
        sig = inspect.signature(orig)
        tracer = self

        @wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = orig(*args, **kwargs)
                if force:
                    result.persist()
                    result.count()
                    tracer._persisted.append(result)
            if hook is not None:
                with tracer.span("trace.hook"):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result)
            return result

        owners = [owner] if isinstance(owner, type) else [
            m for n, m in list(sys.modules.items())
            if (n == "repro" or n.startswith("repro.")) and m is not None
        ]
        for ns in owners:
            if vars(ns).get(attr) is orig:
                self._patched.append((ns, attr, orig))
                setattr(ns, attr, traced)

    def install(self) -> "Tracer":
        """Wrap the public functions of every layer (see LAYER_METRICS)."""
        from repro.core import aggregate, direct, evaporate, execute, metrics
        from repro.core import schema, synthesis, ws
        from repro.core.chunk import n_chunks
        from repro.harness import tables
        from repro.lakes import registry
        from repro.llm.mock_llm import MockLLM

        c = self.count

        def lake_docs(a, lake):
            c("lakes.docs", lake.n_docs)

        def schema_tokens(a, res):
            c("schema.tokens", res.ledger.total)

        def candidates(a, cands):
            c("synthesis.candidates", len(cands))
            c("synthesis.distinct", len({x.source for x in cands}))

        def applications(a, votes):
            n = a["lake"].n_docs if a["doc_ids"] is None else len(a["doc_ids"])
            c("execute.applications", n * len(a["candidates"]))

        def prepared(a, art):
            c("execute.votes", len(art.votes_all))
            c("execute.empty", int((art.votes_all.value == "").sum()))
            c("eval_labels.tokens", art.ledger.by_stage.get("eval_labels", 0))

        def planned(a, plan):
            c("plan.kept", len(plan.kept))
            c("plan.fids", sum(x.attribute == a["attr"] for x in a["candidates"]))

        def fitted(a, model):
            c("ws.vote_docs", len(a["votes"]))

        def direct_run(a, res):
            lake, ids = a["lake"], a["doc_ids"]
            key = (lake.name, lake.n_docs, None if ids is None else tuple(ids))
            if key not in self._chunks:
                docs = lake.docs if ids is None else lake.docs[lake.docs.doc_id.isin(set(ids))]
                self._chunks[key] = sum(n_chunks(t) for t in docs.text)
            c("direct.chunks", self._chunks[key])
            c("direct.tokens", res.tokens)
            c("direct.out_rows", len(res.table))

        self._wrap(registry, "make_lake", "make_lake", lake_docs)
        self._wrap(MockLLM, "__init__", "MockLLM.__init__")
        self._wrap(schema, "synthesize_schema", "synthesize_schema", schema_tokens)
        self._wrap(synthesis, "generate_candidates", "generate_candidates", candidates)
        self._wrap(execute, "run_functions", "run_functions", applications, force=True)
        self._wrap(aggregate, "eval_labels", "eval_labels")
        self._wrap(aggregate, "score_and_plan", "score_and_plan", planned)
        self._wrap(aggregate, "aggregate_votes_spark", "aggregate_votes_spark", force=True)
        self._wrap(ws, "fit_label_model", "fit_label_model", fitted)
        self._wrap(evaporate, "prepare_code", "prepare_code", prepared)
        self._wrap(evaporate, "finish_code_plus", "finish_code_plus")
        self._wrap(evaporate, "run_code_plus", "run_code_plus")
        self._wrap(direct, "run_direct", "run_direct", direct_run)
        self._wrap(metrics, "pair_f1", "pair_f1")
        self._wrap(metrics, "closed_text_f1", "closed_text_f1")
        self._wrap(tables, "table1", "table1")
        self._wrap(tables, "table4", "table4")
        return self

    # -- metrics --------------------------------------------------------
    def pass_metrics(self, pass_id: str) -> dict[str, float]:
        """Per-layer metrics of one traced pass (see LAYER_METRICS)."""
        own = self_times(self.spans)
        dur: dict[str, float] = {}
        slf: dict[str, float] = {}
        calls: dict[str, int] = {}
        root = 0.0
        for s, st in zip(self.spans, own):
            if s.pass_id != pass_id:
                continue
            if s.parent is None:
                root += st
                continue
            dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
            slf[s.name] = slf.get(s.name, 0.0) + st
            calls[s.name] = calls.get(s.name, 0) + 1

        def n(key: str) -> float:
            return self.counts.get((pass_id, key), 0)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        apps = n("execute.applications")
        hooks = slf.pop("trace.hook", 0.0)
        layers = sum(slf.values())
        return {
            "llm.init_calls": calls.get("MockLLM.__init__", 0),
            "llm.init_s": dur.get("MockLLM.__init__", 0.0),
            "schema.s": dur.get("synthesize_schema", 0.0),
            "schema.tokens": n("schema.tokens"),
            "synthesis.s": dur.get("generate_candidates", 0.0),
            "synthesis.candidates": n("synthesis.candidates"),
            "synthesis.distinct_share": ratio(n("synthesis.distinct"), n("synthesis.candidates")),
            "execute.s": dur.get("run_functions", 0.0),
            "execute.applications": apps,
            "execute.us_per_app": ratio(1e6 * dur.get("run_functions", 0.0), apps),
            "execute.empty_share": ratio(n("execute.empty"), n("execute.votes")),
            "eval_labels.s": dur.get("eval_labels", 0.0),
            "eval_labels.tokens": n("eval_labels.tokens"),
            "plan.s": dur.get("score_and_plan", 0.0),
            "plan.calls": calls.get("score_and_plan", 0),
            "plan.kept_share": ratio(n("plan.kept"), n("plan.fids")),
            "vote.s": dur.get("aggregate_votes_spark", 0.0),
            "vote.calls": calls.get("aggregate_votes_spark", 0),
            "ws.s": dur.get("fit_label_model", 0.0),
            "ws.calls": calls.get("fit_label_model", 0),
            "ws.vote_docs": ratio(n("ws.vote_docs"), calls.get("fit_label_model", 0)),
            "evaporate.self_s": sum(slf.get(k, 0.0) for k in EVAPORATE_SPANS),
            "evaporate.prepare_calls": calls.get("prepare_code", 0),
            "direct.s": dur.get("run_direct", 0.0),
            "direct.chunks": n("direct.chunks"),
            "direct.tokens": n("direct.tokens"),
            "direct.out_rows": n("direct.out_rows"),
            "metrics.s": dur.get("pair_f1", 0.0) + dur.get("closed_text_f1", 0.0),
            "metrics.calls": calls.get("pair_f1", 0) + calls.get("closed_text_f1", 0),
            "harness.table1_s": dur.get("table1", 0.0),
            "harness.table4_s": dur.get("table4", 0.0),
            "spark.jobs": n("spark.jobs"),
            "trace.layers_self_s": layers,
            "trace.unattributed_s": root + hooks,
        }

    def lake_metrics(self, pass_ids: list[str]) -> dict[str, float]:
        """Median lake-build seconds and docs built over set-up rounds."""
        secs = [
            sum(s.end - s.start for s in self.spans
                if s.pass_id == p and s.name == "make_lake")
            for p in pass_ids
        ]
        return {
            "lakes.build_s": statistics.median(secs),
            "lakes.docs": self.counts.get((pass_ids[0], "lakes.docs"), 0),
        }

    def dump(self) -> list[dict]:
        own = self_times(self.spans)
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "pass": s.pass_id, "self": st}
            for s, st in zip(self.spans, own)
        ]

    def restore(self) -> None:
        for ns, attr, orig in reversed(self._patched):
            setattr(ns, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()
        self.end_pass()
