"""Scale bench: Code+ and Direct on the FDA and Enron lakes at 600, 3000 and
6000 documents, written to ``BENCH_scale.json``.

Run from the root of a checkout::

    python benchmarks/bench_scale.py --label after
    python benchmarks/bench_scale.py --label before --out ../other/BENCH_scale.json

Each (setting, docs, pipeline) runs ``RUNS`` times, each in a fresh Python
process with its own local Spark session: it builds the lake, then runs
the pipeline twice. The first, cold run pays one-time costs (Python
workers, any per-lake Spark state); the second, warm run is the steady
state. A run records wall seconds, LLM tokens and output rows; the process
records the lake build time and its peak driver RSS (Python only; the JVM
is a separate process), then the lake's text size, read from the docs
frame the runs cached on the executors. A point keeps every process's
record and the medians of ``cold_s``, ``warm_s`` and ``peak_rss_mb``; its
tokens and rows must be the same in every run. The results go under ``--label`` in the
output file, next to the labels already there, so one file holds a before
and an after.

FDA's text crosses 48 MiB between 3000 and 6000 docs (30.9 MB and 61.9 MB);
Enron stays at 7.4 MB at 6000 docs and is the control.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = ("fda", "enron")
SIZES = (600, 3000, 6000)
PIPELINES = ("code_plus", "direct")
MODEL, SEED = "davinci", 0
RUNS = 3  # fresh processes per point; one cannot resolve changes under ~30%
DRIVER_MEM = "3g"


def one(setting: str, n_docs: int, pipeline: str) -> dict:
    """Build one lake and run one pipeline on it twice, in this process."""
    src = str(ROOT / "src")
    sys.path[:0] = [src, str(ROOT)]
    # Spark's Python workers import repro from the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    os.environ.setdefault("SPARK_DRIVER_MEM", DRIVER_MEM)
    import conftest  # noqa: F401  (sets PYSPARK_SUBMIT_ARGS before pyspark loads)
    from pyspark.sql import functions as F

    from jobs._common import build_session
    from repro.core import direct, evaporate
    from repro.core.execute import docs_frame
    from repro.lakes import registry

    spark = build_session("bench-scale")
    spark.sparkContext.setLogLevel("ERROR")
    t0 = time.perf_counter()
    lake = registry.make_lake(setting, n_docs)
    out = {"setting": setting, "n_docs": n_docs, "pipeline": pipeline,
           "lake_build_s": round(time.perf_counter() - t0, 2)}
    for run in ("cold", "warm"):
        t0 = time.perf_counter()
        if pipeline == "code_plus":
            res = evaporate.run_code_plus(spark, lake, MODEL, SEED)
        else:
            res = direct.run_direct(spark, lake, MODEL, SEED)
        out[f"{run}_s"] = round(time.perf_counter() - t0, 2)
        out[f"{run}_tokens"] = int(res.tokens)
        out[f"{run}_rows"] = len(res.table)
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    # the text stays on the executors: its size is read from the cached frame
    chars = docs_frame(spark, lake).select(F.sum(F.length("text"))).first()[0]
    out["text_mb"] = round(chars / 1e6, 1)
    spark.stop()
    return out


def point(runs: list[dict]) -> dict:
    """One (setting, docs, pipeline)'s runs and their medians."""
    out = {k: runs[0][k] for k in ("setting", "n_docs", "pipeline", "text_mb")}
    for k in ("tokens", "rows"):
        seen = {r[f"{run}_{k}"] for r in runs for run in ("cold", "warm")}
        if len(seen) != 1:
            raise RuntimeError(f"{out}: {k} differ between runs: {sorted(seen)}")
        out[k] = seen.pop()
    for k in ("cold_s", "warm_s", "peak_rss_mb"):
        out[k] = statistics.median(r[k] for r in runs)
    out["runs"] = runs
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this set of runs, e.g. before/after")
    ap.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    ap.add_argument("--one", nargs=3, metavar=("SETTING", "N_DOCS", "PIPELINE"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        setting, n, pipeline = args.one
        print(json.dumps(one(setting, int(n), pipeline)))
        return 0

    points = []
    for setting in SETTINGS:
        for n in SIZES:
            for pipeline in PIPELINES:
                cmd = [sys.executable, __file__, "--label", args.label,
                       "--one", setting, str(n), pipeline]
                runs = [json.loads(subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                                  check=True).stdout.strip().splitlines()[-1])
                        for _ in range(RUNS)]
                points.append(point(runs))
                print(json.dumps(points[-1]), flush=True)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["hardware"] = {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "master": os.environ.get("SPARK_MASTER", "local[*]"),
                       "driver_memory": os.environ.get("SPARK_DRIVER_MEM", DRIVER_MEM)}
    doc[args.label] = {"model": MODEL, "seed": SEED, "points": points}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
