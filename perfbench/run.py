"""Benchmark of the Luck interpreter: valuations generated per second.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

With --workload, one workload runs in this process.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  The line before it, prefixed "detail:", holds
what is recorded but not gated, such as the output digest.

Without --workload, every workload runs in a process of its own and each
metric is printed as a row: workload, name, value, unit.

The exit status is 0 when every emitted valuation satisfies its
predicate, 1 when one does not or a workload process failed, 2 when the
interpreter's sources or corpus are missing or the workload is unknown.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The address-space limit the roadmap sets for corpus sweeps.
MEMORY_LIMIT_BYTES = 1_500_000_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default=None,
                   help="workload to run here (default: all, one process "
                        "each)")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed; valuation seeds are derived from it")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 for the traced per-layer run")
    return p.parse_args(argv)


def run_workload(ns) -> int:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, hard))
    import workloads
    w = workloads.WORKLOADS.get(ns.workload)
    if w is None:
        print(f"error: unknown workload {ns.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    measure = workloads.measure_traced if ns.trace else workloads.measure
    result = measure(w, ns.seed, ns.seconds)
    print("detail: " + json.dumps(result.detail))
    print(result.to_json())
    return 0 if result.correct else 1


def run_all(ns) -> int:
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(ns.seed), "--seconds", str(ns.seconds),
             "--trace", str(ns.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].removeprefix("detail: "))
        for metric, m in result["metrics"].items():
            print(f"{name:10s} {metric:44s} {m['value']:14.4f} {m['unit']}")
        print(f"{name:10s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{json.dumps(detail)}")
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    ns = parse_args(argv)
    missing = [p for p in ("src/luck/driver.py", "corpus")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if ns.workload is None:
        return run_all(ns)
    return run_workload(ns)


if __name__ == "__main__":
    sys.exit(main())
