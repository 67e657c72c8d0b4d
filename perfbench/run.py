"""Evaporate benchmark: run one workload, check its output, print metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload codeplus-fda --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 0          # every workload, one process each

A run starts the Spark session, builds the workload's lakes three times
(median reported) and runs ``WARMUP_PASSES`` unmeasured passes, the first
of which gives the reference output; together these are ``setup_s``. It
then runs measured passes until ``--seconds`` is used up (at least
``MIN_PASSES``).
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between traced and
untraced, and the JSON carries the per-layer metrics (see tracing.py).
Every pipeline run is checked: it fails if it raised, or if its output
digest or token count differs from the cold pass, or from the committed
reference in reference.json for the same seed and sizes.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"  # scratch space: JVM/Python temp files, Spark local dir, traces
WARMUP_PASSES = 2  # the first, cold one is the reference output
MIN_PASSES = 3
MIN_TRACED = 2  # traced passes, each paired with an untraced one
DRIVER_MEM = "3g"
F1_FLOOR = 0.2  # a pass scoring below this against lake gold is wrong, not slow


def prepare_env() -> None:
    """Make the checkout's ``src`` importable here and in Spark's Python
    workers, keep every temp file inside the checkout, and reuse the
    repo's own launch settings (conftest.py) with the progress bar off."""
    src = ROOT / "src"
    needed = [src / "repro" / "__init__.py", ROOT / "conftest.py", ROOT / "jobs" / "_common.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a repro checkout, missing {', '.join(missing)}")
    for d in ("tmp", "spark-local"):
        (OUT / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"  # no /tmp/hsperfdata_* files
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["SPARK_DRIVER_MEM"] = DRIVER_MEM
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ.pop("SPARK_MASTER", None)
    sys.path[:0] = [str(src), str(ROOT)]
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    import conftest  # noqa: F401  (sets PYSPARK_SUBMIT_ARGS)

    os.environ["PYSPARK_SUBMIT_ARGS"] = os.environ["PYSPARK_SUBMIT_ARGS"].replace(
        "pyspark-shell",
        "--conf spark.ui.showConsoleProgress=false "
        f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={OUT / 'tmp'}' pyspark-shell",
    )
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for both."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def peak_rss_reset() -> None:
    """Reset VmHWM so the next read is the peak since now (Linux >= 4.0)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def load_reference(wl, seed: int) -> dict | None:
    ref = json.loads((HERE / "reference.json").read_text())
    return ref.get(wl.name, {}).get(wl.config(), {}).get(str(seed))


def check(out, ref: dict, label: str) -> list[str]:
    """Compare a pass's runs with a reference; one message per failed run."""
    bad = []
    if len(out.runs) != len(ref["runs"]):
        return [f"{label}: {len(out.runs)} runs, reference has {len(ref['runs'])}"]
    for i, (r, (digest, tokens)) in enumerate(zip(out.runs, ref["runs"])):
        if r.digest != digest or r.tokens != tokens:
            bad.append(f"{label}: run {i} digest/tokens {r.digest[:12]}/{r.tokens} "
                       f"!= {digest[:12]}/{tokens}")
    return bad


def run_workload(spark, wl, seed: int, seconds: float, trace: bool, session_s: float) -> dict:
    from repro.lakes import registry
    import tracing

    sc = spark.sparkContext
    tracer = tracing.Tracer() if trace else None

    # -- set-up: lakes (three cold builds, median), then the warm-up passes --
    builds = []
    for k in range(3):
        registry.make_lake.cache_clear()
        if tracer:
            tracer.begin_pass(f"setup{k}")
            tracer.install()
        t0 = time.perf_counter()
        for setting, n in wl.lakes():
            registry.make_lake(setting, n)
        builds.append(time.perf_counter() - t0)
        if tracer:
            tracer.restore()
    t0 = time.perf_counter()
    warm = [wl.run_pass(spark, seed) for _ in range(WARMUP_PASSES)]
    warmup_s = time.perf_counter() - t0
    setup_s = session_s + statistics.median(builds) + warmup_s
    ref_out = warm[0]

    # -- output checks of the warm-up passes, outside any timed region --
    problems = []
    f1 = wl.score(spark, ref_out)
    if not (ref_out.rows > 0 and ref_out.tokens > 0 and f1 >= F1_FLOOR):
        problems.append(f"cold pass: rows={ref_out.rows} tokens={ref_out.tokens} f1={f1:.4f}")
    committed = load_reference(wl, seed)
    if committed is not None:
        problems += check(ref_out, committed, "cold pass vs reference.json")
    failed = len(ref_out.runs) if problems else 0
    ref = {"runs": [(r.digest, r.tokens) for r in ref_out.runs]}
    for k, out in enumerate(warm[1:], 1):
        bad = check(out, ref, f"warm-up pass {k}")
        failed += len(bad)
        problems += bad
    attempted = sum(len(out.runs) for out in warm)

    # -- measured passes: closed loop until the time is used up --
    times, traced_times, rss, layer, rates = [], [], [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        spent = time.perf_counter() - t_start
        n_done = len(times) + len(traced_times)
        if n_done >= (2 * MIN_TRACED if trace else MIN_PASSES):
            typical = statistics.median(times + traced_times)
            if spent + typical > seconds or n_done >= 200:
                break
        traced = trace and i % 2 == 0
        pass_id = f"pass{i}"
        gc.collect()
        peak_rss_reset()
        if traced:
            tracer.begin_pass(pass_id)
            tracer.install()
            sc.setJobGroup(pass_id, pass_id)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("pass"):
                    out = wl.run_pass(spark, seed)
            else:
                out = wl.run_pass(spark, seed)
            dt = time.perf_counter() - t0
            bad = check(out, ref, pass_id)
        except Exception:  # a pass that raises is a failed run, not a crash
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            out, bad = None, [f"{pass_id}: raised"]
        finally:
            if traced:
                tracer.restore()
                tracer.end_pass()
                sc.setLocalProperty("spark.jobGroup.id", None)
        n_runs = len(ref["runs"]) if out is None else len(out.runs)
        attempted += n_runs
        failed += len(bad) if out is not None else n_runs
        problems += bad
        if traced:
            traced_times.append(dt)
            tracer.count("spark.jobs", len(sc.statusTracker().getJobIdsForGroup(pass_id)))
            layer.append(tracer.pass_metrics(pass_id))
        else:
            times.append(dt)
            rss.append(peak_rss_mb())
            if out is not None:
                rates.append(out.docs / dt)
        i += 1

    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    if trace:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics.update(tracer.lake_metrics([f"setup{k}" for k in range(3)]))
        metrics["trace.traced_pass_s"] = statistics.median(traced_times)
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(times)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{wl.name}-{seed}.json").write_text(json.dumps(
            {"workload": wl.name, "seed": seed, "untraced_pass_s": times,
             "traced_pass_s": traced_times, "spans": tracer.dump()}))
        report = {k: {"value": metrics[k], "unit": tracing.LAYER_METRICS[k][0]}
                  for k in tracing.LAYER_METRICS}
    else:
        report = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "docs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "llm_tokens": {"value": ref_out.tokens, "unit": "count"},
            "pair_f1": {"value": f1, "unit": "share"},
            "driver_peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "ok_share": {"value": 1 - failed / attempted, "unit": "share"},
        }
        print(f"perfbench: {wl.name} seed={seed} rows={ref_out.rows} digest={ref_out.digest[:16]} "
              f"session={session_s:.1f}s lakes={statistics.median(builds):.1f}s "
              f"warmup={warmup_s:.1f}s passes={[round(t, 2) for t in times]}", file=sys.stderr)
    for k, v in report.items():
        print(f"perfbench: {k:24s} {v['value']:.6g} {v['unit']}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": report}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, **json.loads(lines[-1])}) if lines else
              json.dumps({"workload": name, "correct": False}))
        code = code or proc.returncode or (0 if lines else 1)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None, help="one workload; default: all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    prepare_env()
    if args.workload is None:
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    from jobs._common import build_session

    t0 = time.perf_counter()
    spark = build_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    session_s = time.perf_counter() - t0
    try:
        result = run_workload(spark, WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), session_s)
    finally:
        stop_spark(spark)
    for m in result["metrics"].values():
        if not math.isfinite(m["value"]):
            result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
