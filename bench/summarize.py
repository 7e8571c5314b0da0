"""Summarise the run records in bench/out/ into one JSON document.

    python3 bench/summarize.py > bench/BASELINE.json

Groups the records by workload and trace mode and gives, for every metric, the
median and quartiles over the runs (seeds), with the runs' metadata.
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main():
    groups = {}
    for path in sorted(OUT.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        groups.setdefault(f"{meta['workload']}/trace{meta['trace']}", []).append(record)
    summary = {}
    for name, records in sorted(groups.items()):
        metrics = {}
        for key, first in records[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in records]
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            metrics[key] = {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
                            "unit": first["unit"]}
        metas = [r["meta"] for r in records]
        summary[name] = {
            "runs": len(records),
            "seeds": [m["seed"] for m in metas],
            "attempted": [sum(m["op_counts"].values()) for m in metas],
            "failing_keys": sorted({k for m in metas for k in m["failing_keys"]}),
            "tail_percentiles": sorted({m.get("tail_percentile") for m in metas} - {None}),
            "environment": {k: metas[0][k] for k in ("commit", "src_sha256", "nproc", "blas_threads",
                                                     "python", "numpy", "scipy", "seconds")},
            "metrics": metrics,
        }
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
