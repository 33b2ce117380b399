"""Summarise the run records that bench/run.py leaves in .bench_out/.

    python3 bench/summarize.py > bench/baseline.json

Per workload: the environment fingerprint, the seeds, failed and attempted
tasks, and for every end-to-end metric the median over the untraced runs,
their quartiles and the spread (quartile distance over the median, the rule
BENCHMARK.json's bounds are checked with).  Per-layer metrics are medians
over the traced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    out = {}
    for wl in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == wl and r["size"] == "full"]
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        entry = {
            "env": runs[0]["env"],
            "seeds": sorted(r["seed"] for r in plain),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {},
        }
        for name in plain[0]["metrics"] if plain else ():
            vals = [r["metrics"][name] for r in plain]
            med = statistics.median(vals)
            row = {"median": med, "runs": len(vals)}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med)
            entry["end_to_end"][name] = row
        for name in traced[0]["metrics"] if traced else ():
            entry["per_layer"][name] = statistics.median(r["metrics"][name] for r in traced)
        out[wl] = entry
    return out


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted((ROOT / ".bench_out").glob("run-*.json"))]
    if not records:
        print("no run records in .bench_out/", file=sys.stderr)
        return 2
    print(json.dumps(summarize(records), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
