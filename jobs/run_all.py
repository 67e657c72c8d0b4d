"""Regenerate the paper's tables -> results/tableN.md.

Run from the repo root::

    PYTHONPATH=src:. python jobs/run_all.py                # all seven tables
    PYTHONPATH=src:. python jobs/run_all.py table3 table5  # only these, in order
"""
import os
import sys
import time

import conftest  # noqa: F401  (sets PYSPARK_SUBMIT_ARGS before pyspark loads)
from jobs._common import build_session
from repro.harness import tables

TABLES = ["table1", "table2", "table3", "table4", "table5", "table6", "table7"]


def main(names: list[str]) -> None:
    unknown = [n for n in names if n not in TABLES]
    if unknown:
        sys.exit(f"unknown table(s): {' '.join(unknown)}; "
                 f"choose from {' '.join(TABLES)}")
    if not os.path.isdir("results"):
        sys.exit("no results/ directory in the working directory; run from the repo root")

    spark = build_session("run-all")
    spark.sparkContext.setLogLevel("ERROR")
    cfg = tables.HarnessConfig(n_docs=60)

    for name in names:
        t0 = time.time()
        df = getattr(tables, name)(spark, cfg)
        md = tables.to_markdown(df)
        with open(f"results/{name}.md", "w") as f:
            f.write(md + "\n")
        print(f"=== {name} ({time.time()-t0:.0f}s) ===")
        print(md, flush=True)
    spark.stop()
    print("DONE")


if __name__ == "__main__":
    main(sys.argv[1:] or TABLES)
