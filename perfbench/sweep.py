#!/usr/bin/env python3
"""Record a set of benchmark runs as JSON lines, one run at a time.

Usage: python3 perfbench/sweep.py OUT.jsonl [--workloads a,b] [--seeds 1-10]
                                            [--seconds S] [--trace 0|1]

Each line holds the workload, seed, trace flag, the run's wall time and the
result object run.py printed.  perfbench/compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import RUNNERS  # noqa: E402


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--workloads", default=",".join(RUNNERS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in args.workloads.split(","):
            for seed in seeds(args.seeds):
                argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(args.seconds),
                                           "--trace", str(args.trace)]
                start = time.perf_counter()
                proc = subprocess.run(argv, cwd=HERE.parent, stdout=subprocess.PIPE,
                                      text=True, timeout=600)
                wall = time.perf_counter() - start
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                row = {"workload": workload, "seed": seed, "trace": args.trace,
                       "wall_s": wall, "exit": proc.returncode, "result": result}
                out.write(json.dumps(row) + "\n")
                out.flush()
                metrics = result["metrics"] if result else {}
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items())
                print(f"{workload} seed={seed} exit={proc.returncode} wall={wall:.1f}s "
                      f"correct={result and result['correct']} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
