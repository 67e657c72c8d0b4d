"""Tests of the benchmark's own code. Not in pytest's default collection;
run from the repo root with::

    PYTHONPATH=src SPARK_DRIVER_MEM=3g python3 -m pytest perfbench -q -p no:cacheprovider

The seed-0 anchors at 3000 documents take a few minutes.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from tracing import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]


def _repro_bindings() -> dict[tuple[str, str], object]:
    from repro.llm.mock_llm import MockLLM

    out = {(n, a): v for n, m in list(sys.modules.items())
           if (n == "repro" or n.startswith("repro.")) and m is not None
           for a, v in vars(m).items() if callable(v)}
    out[("MockLLM", "__init__")] = vars(MockLLM)["__init__"]
    return out


def test_install_wraps_and_restore_puts_every_original_back():
    from repro.core import evaporate, execute

    Tracer().install().restore()  # import every wrapped module first
    before = _repro_bindings()
    tracer = Tracer().install()
    try:
        assert evaporate.run_functions is not before[("repro.core.evaporate", "run_functions")]
        assert execute.run_functions is evaporate.run_functions
        assert len(tracer._patched) >= 17
    finally:
        tracer.restore()
    after = _repro_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("pass", 0.0, 10.0, None, "p"),
        Span("a", 1.0, 4.0, 0, "p"),
        Span("b", 3.0, 6.0, 0, "p"),  # overlaps a: union of a and b is 1..6
        Span("c", 2.0, 3.0, 1, "p"),  # grandchild: charged to a, not to pass
        Span("d", 8.0, 9.0, 0, "p"),
    ]
    st = self_times(spans)
    assert st == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 1])


def test_pass_metrics_reconcile_with_the_root_span():
    t = Tracer()
    t.begin_pass("p0")
    with t.span("pass"):
        with t.span("run_code_plus"):
            with t.span("run_functions"):
                pass
            with t.span("trace.hook"):
                pass
    m = t.pass_metrics("p0")
    root = t.spans[0]
    assert m["trace.layers_self_s"] + m["trace.unattributed_s"] == pytest.approx(root.end - root.start)


def test_benchmark_json_lists_the_layer_metrics_and_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (k, unit, better) for k, (unit, better, _) in tracing.LAYER_METRICS.items()]
    assert {w["name"] for w in bench["workloads"]} <= workloads.WORKLOADS.keys()


class _Tiny(workloads.CodePlusFDA):
    n_docs = 24


class _TinyDirect(workloads.DirectNBA):
    n_docs = 24


@pytest.mark.parametrize("wl", [_Tiny(), _TinyDirect()], ids=["codeplus", "direct"])
def test_traced_pass_gives_the_untraced_output(spark, wl):
    plain = wl.run_pass(spark, 0)
    tracer = Tracer().install()
    try:
        tracer.begin_pass("p0")
        with tracer.span("pass"):
            traced = wl.run_pass(spark, 0)
    finally:
        tracer.restore()
        tracer.end_pass()
    assert (traced.digest, traced.tokens) == (plain.digest, plain.tokens)
    assert tracer.pass_metrics("p0")["trace.layers_self_s"] > 0


@pytest.mark.parametrize("wl,tokens,rows", [
    (workloads.CodePlusFDA(), 409_290, 35_231),
    (workloads.DirectNBA(), 32_611_289, 32_266),
], ids=["codeplus-fda", "direct-nba"])
def test_seed0_anchors_at_3000_docs(spark, wl, tokens, rows):
    wl.n_docs = 3000
    out = wl.run_pass(spark, 0)
    assert (out.tokens, out.rows) == (tokens, rows)
