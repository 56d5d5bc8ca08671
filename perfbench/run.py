"""Benchmark of the revbayes package and CLI.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 15 --trace 0

Workloads: screen, meta-large, cold-cli (see perfbench/README.md). With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it makes a
separate traced run and prints the per-layer metrics. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Span files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import common

WORKLOADS = {"screen": "screen", "meta-large": "meta_large", "cold-cli": "cold_cli"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(common.SRC, "revbayes", "__init__.py")):
        print(f"perfbench: no package sources at {common.SRC}", file=sys.stderr)
        return 2
    os.chdir(common.ROOT)   # the mix names the bundled table relative to the root
    os.makedirs(common.OUT, exist_ok=True)
    # one CPU for the whole run, child processes included, so that the
    # speed probe always measures the CPU that does the measured work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    module = importlib.import_module(WORKLOADS[args.workload])
    run = module.run_traced if args.trace else module.run
    res = run(args.seed, args.seconds)

    print(f"# revbayes benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in res.metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    for line in res.notes:
        print("# " + line)
    print(json.dumps({
        "correct": res.attempted > 0 and res.unexpected == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
