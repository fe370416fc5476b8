#!/usr/bin/env python3
"""Compare two sets of benchmark runs recorded by perfbench/sweep.py.

Usage: python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

For each workload and end-to-end metric it prints the median and quartiles
of every set, the spread (interquartile range over median) and, given two
sets, how far the new median moved in the worse direction.  A row agrees
when each set's spread is within the metric's bound in BENCHMARK.json (the
spread of setup_s is shown but not judged) and the move is within the bound
too.  It also checks that the share of failed operations is identical, that
traced count metrics repeat exactly, and reports the traced run's overhead
against an untraced run.  Exit status 1 when anything disagrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Layers whose spans cover the verify-file operation, a `qftv verify` process.
FILE_LAYERS = ("cli.import_s", "circuit.parse_s", "abstraction.typecheck_s",
               "abstraction.group_s", "abstraction.interpret_s", "checker.decide_s",
               "checker.report_s")


def load(path: str) -> list[dict]:
    rows = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]
    bad = [r for r in rows if r["result"] is None or not r["result"]["correct"]]
    for r in bad:
        print(f"{path}: {r['workload']} seed {r['seed']} trace {r['trace']} "
              f"exit {r['exit']} gave no correct result")
    return [r for r in rows if r not in bad]


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def by_workload(rows: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for r in rows:
        if r["trace"] == trace:
            out[r["workload"]].append(r["result"])
    return out


def failed_share(results: list[dict]) -> Fraction:
    return Fraction(sum(r["failed"] for r in results), sum(r["attempted"] for r in results))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = sys.argv[1:]
    if not 1 <= len(names) <= 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sets = [load(name) for name in names]
    plain = [by_workload(rows, 0) for rows in sets]
    ok = True
    print(f"{'workload':14} {'metric':12} {'bound':>5}  " +
          "  ".join(f"{'median':>9} {'q1':>9} {'q3':>9} {'spread':>6}" for _ in names) +
          ("  moved  agree" if len(names) == 2 else "  agree"))
    workloads = set.intersection(*(set(runs) for runs in plain))
    for workload in sorted(set().union(*plain) - workloads):
        print(f"{workload:14} not in every set; not compared")
    for workload in sorted(workloads):
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, agree = [], [], True
            for runs in plain:
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                med, q1, q3, spread = summary(values)
                medians.append(med)
                cells.append(f"{med:9.4g} {q1:9.4g} {q3:9.4g} {spread:6.3f}")
                if name != "setup_s" and spread > bound:
                    agree = False
            line = f"{workload:14} {name:12} {bound:5.2f}  " + "  ".join(cells)
            if len(medians) == 2:
                moved = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    moved = -moved
                agree = agree and moved <= bound
                line += f"  {moved:+6.3f}"
            ok = ok and agree
            print(f"{line}  {'yes' if agree else 'NO'}")
        shares = [failed_share(runs[workload]) for runs in plain]
        if len(set(shares)) > 1:
            ok = False
            print(f"{workload:14} failed share differs: {[str(s) for s in shares]}")
    for label, rows in zip(names, sets):
        traced = [r for r in rows if r["trace"] == 1]
        if not traced:
            continue
        counts = defaultdict(set)
        for r in traced:
            for key, metric in r["result"]["metrics"].items():
                if metric["unit"] == "count":
                    counts[key].add(metric["value"])
        varying = sorted(k for k, v in counts.items() if len(v) > 1)
        ok = ok and not varying
        print(f"{label}: {len(traced)} traced runs; counts "
              f"{'repeat exactly' if not varying else 'VARY: ' + ', '.join(varying)}")
        walls = defaultdict(lambda: ([], []))
        for r in rows:
            walls[r["workload"]][r["trace"]].append(r["wall_s"])
        for workload, (untraced, with_trace) in sorted(walls.items()):
            if untraced and with_trace:
                print(f"  {workload}: traced run {statistics.median(with_trace):.1f}s, "
                      f"untraced run {statistics.median(untraced):.1f}s of wall time")
        file_runs = by_workload(rows, 0).get("verify-file")
        if file_runs:
            spans = statistics.median(
                sum(r["result"]["metrics"][k]["value"] for k in FILE_LAYERS) for r in traced)
            op = statistics.median(r["metrics"]["op_s"]["value"] for r in file_runs)
            print(f"  verify-file: layer spans sum to {spans:.3f}s against an untraced "
                  f"op_s of {op:.3f}s ({spans / op - 1:+.1%})")
    print("all agree" if ok else "some rows disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
