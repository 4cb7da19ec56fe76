"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest-bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it state each
timing's sample count (and, traced, the layer breakdown).  The exit code
is 0 when the run's correctness checks pass, 1 when they fail, and 2
when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink the workload to a seconds-long smoke run (tests only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"run.py: no package at {SRC / 'repro'}; run it from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"run.py: unknown workload {args.workload!r}; expected one of "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    run = workloads.trace if args.trace else workloads.measure
    # Exit through interpreter shutdown on SIGTERM, which stops the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        report = run(workload, args.seed, args.seconds)
    finally:
        # The shm executor's segments start multiprocessing's resource
        # tracker process, which nothing else stops or waits for.
        resource_tracker._resource_tracker._stop()
    for line in report.notes:
        print(line)
    for problem in report.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in report.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in report.metrics.items()
    }
    finite = all(math.isfinite(metric["value"]) for metric in metrics.values())
    correct = not report.problems and finite
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
