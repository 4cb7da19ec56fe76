"""Steadiness check: run each workload over several seeds and report spreads.

Usage, from the root of a checkout::

    python3 perfbench/steady.py > record.json

Runs ``perfbench/run.py`` once per seed (``SEEDS``) for every workload of
``BENCHMARK.json``, one run at a time, with its ``run_seconds``.  For
every end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median, beside the metric's bound.  A summary table goes to standard error and
the full record, as JSON, to standard output.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {}
    for name in (workload["name"] for workload in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            done = subprocess.run(
                [
                    sys.executable, "perfbench/run.py", "--workload", name,
                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                    "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"] or result["failed"]:
                print(done.stderr, file=sys.stderr)
                return 1
            runs.append({key: m["value"] for key, m in result["metrics"].items()})
            print(f"{name} seed {seed} ok", file=sys.stderr)
        record[name] = summarize(spec, runs)
    for name, metrics in record.items():
        print(f"\n{name}\n", file=sys.stderr)
        print("| metric | median | q1 | q3 | spread | bound |", file=sys.stderr)
        print("|---|---|---|---|---|---|", file=sys.stderr)
        for metric, row in metrics.items():
            print(
                f"| `{metric}` | {row['median']:.6g} | {row['q1']:.6g} | "
                f"{row['q3']:.6g} | {row['spread']:.3f} | {row['bound']} |",
                file=sys.stderr,
            )
    print(json.dumps(record, indent=1))
    return 0


def summarize(spec: dict, runs: list[dict[str, float]]) -> dict[str, dict]:
    out = {}
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": metric["bound"],
            "values": values,
        }
    return out


if __name__ == "__main__":
    sys.exit(main())
