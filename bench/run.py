"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload library_1d --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines
before it give every metric with its unit, the run metadata and any failed
operation.  The full report is also written to
``.bench_work/<workload>-seed<seed>-trace<0|1>/report.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import (ROOT, WORK_DIR, BenchError, result_line, run_workload,
                     summary_lines)
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/horizonopt/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}" / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print("\n".join(summary_lines(report)))
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
