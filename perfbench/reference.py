"""Regenerate reference.json: the expected output of every workload.

For each workload and seed, one pass runs in a single Spark session and
its per-run output digests and token counts are recorded under the
workload's size configuration. run.py checks every pass against the entry
for its seed when there is one. Run from the root of a checkout::

    python3 perfbench/reference.py --seeds 0-9

Regenerate only when a change is meant to alter pipeline output.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.prepare_env()
    from jobs._common import build_session
    from workloads import WORKLOADS

    path = run.HERE / "reference.json"
    ref = json.loads(path.read_text())
    spark = build_session("perfbench-reference")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        for name, wl in WORKLOADS.items():
            entry = ref.setdefault(name, {}).setdefault(wl.config(), {})
            for seed in seeds:
                out = wl.run_pass(spark, seed)
                entry[str(seed)] = {
                    "runs": [[r.digest, r.tokens] for r in out.runs],
                    "tokens": out.tokens, "rows": out.rows, "pair_f1": wl.score(spark, out),
                }
                print(f"{name} seed={seed} tokens={out.tokens} rows={out.rows} "
                      f"f1={entry[str(seed)]['pair_f1']:.4f}", file=sys.stderr, flush=True)
                path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    finally:
        run.stop_spark(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
