"""Pool the records in perfbench/out/ over runs (seeds) of each workload.

    python3 perfbench/summarize.py [record.json ...]

For every end-to-end metric it prints the median over runs, the quartile
spread as a share of that median (the figure each metric's bound in
BENCHMARK.json is compared with), and the pooled per-pass samples as a
median plus the highest percentile with ten samples beyond it.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import describe
from workloads import OUT


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(OUT.glob("*-trace0.json"))
    runs = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text())
        runs[record["workload"]].append(record)
    for workload, records in sorted(runs.items()):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"## {workload}: {len(records)} runs, seeds "
              f"{sorted(r['seed'] for r in records)}, "
              f"fail_ratio {failed}/{attempted}")
        for metric in records[0]["metrics"]:
            values = [r["metrics"][metric][0] for r in records]
            unit = records[0]["metrics"][metric][1]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"run medians {metric:<14} {med:.4f} {unit}; "
                  f"IQR/median {(q3 - q1) / med:.4f} (n={len(values)} runs)")
        for metric in records[0]["series"]:
            pooled = [v for r in records for v in r["series"][metric]]
            print("pooled " + describe(metric, pooled, "s"))
        loads = [r["provenance"]["loadavg_before"].split()[0] for r in records]
        print(f"1-min loadavg before each run: {' '.join(loads)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
