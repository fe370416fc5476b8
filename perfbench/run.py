#!/usr/bin/env python3
"""End-to-end benchmark for qftverify; see README.md in this directory.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package under test is the
checkout's ``src/``; every timed operation runs in a child process, one at a
time, and every output is checked against refcheck.py.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MINISOLVER = ROOT / "tests" / "minisolver.py"
WORK = HERE / "work"

FILE_M = 1024      # verify-file: the ROADMAP's headline circuit
STREAM_M = 2100    # stream-*: above the package's 2048-qubit streaming threshold
SWEEP_M = 16       # mutant-sweep: 5,432 single-error mutants
DOUBLES = 400
SPLITS = 200
SMT_M = 512        # smt-export: 512 obligations, about 154 MB of text
SMALL_M = 6        # minisolver cross-check, 2**6 assignments per obligation
SETUPS = 3         # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 150.0

clock = time.perf_counter


class Run:
    """Counts and problems of one benchmark run."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work = WORK / f"{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)

    def child(self, argv: list[str], stdout=None) -> tuple[float, float, int]:
        """Run one child to its end: (wall seconds, peak RSS in MB, exit code).

        The peak RSS is this child's own, from wait4.  Linux carries the
        parent's high-water RSS into a child at exec, so this process must
        stay smaller than any child: large checks run in children too.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=stdout or subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def worker(self, task: str, **args) -> tuple[dict | None, float, float]:
        """Run worker.py TASK in a fresh process: (result or None, wall, peak RSS MB)."""
        out = self.work / f"{task}.json"
        out.unlink(missing_ok=True)
        wall, rss, code = self.child(
            [sys.executable, str(HERE / "worker.py"), task, json.dumps(args), str(out)])
        if code != 0 or not out.exists():
            return None, wall, rss
        return json.loads(out.read_text(encoding="utf-8")), wall, rss

    def cli(self, *args: str, stdout=None) -> tuple[float, float, int]:
        return self.child([sys.executable, "-m", "qftverify.cli", *args], stdout=stdout)

    def rounds(self, op) -> None:
        """Call ``op`` until the run's seconds are used; each call is one round."""
        start = clock()
        while True:
            op()
            if clock() - start >= self.seconds:
                return

    def setup(self, make, reps: int = SETUPS) -> float:
        """Median wall time of ``reps`` calls of ``make``, which returns seconds."""
        return statistics.median(make() for _ in range(reps))

    def generate_file(self, m: int, reps: int = SETUPS) -> tuple[Path, float]:
        """Write the m-qubit circuit with `qftv generate` ``reps`` times."""
        path = self.work / f"qft{m}.json"

        def make() -> float:
            wall, _, code = self.cli("generate", "-m", str(m), "-o", str(path))
            if code != 0:
                raise RuntimeError(f"qftv generate -m {m} exited with {code}")
            return wall

        setup_s = self.setup(make, reps)
        result, _, _ = self.worker("check_file", path=str(path), m=m)
        self.problems += ["checking the circuit file failed"] if result is None else result
        return path, setup_s


def metrics(setup_s: float, op_s: list[float], rss: list[float]) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(op_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_file(run: Run, seed: int) -> dict:
    """`qftv verify -i qft1024.json --json`, a fresh process per op."""
    path, setup_s = run.generate_file(FILE_M)
    out = run.work / "verify.out"
    walls, rss = [], []

    def op():
        run.attempted += 1
        with out.open("wb") as handle:
            wall, peak, code = run.cli("verify", "-i", str(path), "--json", stdout=handle)
        try:
            report = json.loads(out.read_bytes())
        except ValueError:  # crashed before printing its report
            run.failed += 1
            return
        if code != 0:
            run.problems.append(f"qftv verify exited with {code} on the textbook circuit")
        run.problems.extend(refcheck.check_verify_json(report, FILE_M))
        walls.append(wall)
        rss.append(peak)

    run.rounds(op)
    return metrics(setup_s, walls, rss)


def ready_setup(run: Run) -> float:
    """A cold worker process up to an imported qftverify, SETUPS times."""

    def make() -> float:
        result, wall, _ = run.worker("ready")
        if result is None:
            raise RuntimeError("a worker could not import qftverify")
        return wall

    return run.setup(make)


def stream_workload(run: Run, scenario: str, want: str) -> dict:
    setup_s = ready_setup(run)
    own_spec = ["IncorrectGateOrder", 1, STREAM_M - 1, STREAM_M - 1]
    if scenario == "gate-n":
        line = refcheck.textbook_line(1, STREAM_M)
        row = refcheck.line_coefficients(STREAM_M, refcheck.change_order(line, *own_spec[1:]))[1]
        if refcheck.separating_input(row, 1, STREAM_M) is None:
            run.problems.append("the gate-n mutation does not change qubit 1")
    walls, rss = [], []

    def op():
        run.attempted += 1
        result, _, peak = run.worker("stream", m=STREAM_M, scenario=scenario)
        if result is None:
            run.failed += 1
            return
        if result["verdict"] != want:
            run.problems.append(f"{scenario}: run_bench gave {result['verdict']}, want {want}")
        want_size = (STREAM_M, refcheck.textbook_gate_count(STREAM_M))
        if (result["qubits"], result["gates"]) != want_size:
            run.problems.append(f"{scenario}: record names {result['gates']} gates")
        if scenario == "gate-n" and result["spec"] != own_spec:
            run.problems.append(f"gate-n is {result['spec']}, expected {own_spec}")
        walls.append(result["wall_s"])
        rss.append(peak)

    run.rounds(op)
    return metrics(setup_s, walls, rss)


def stream_verify(run: Run, seed: int) -> dict:
    """run_bench on the streamed textbook circuit, cold, one per process."""
    return stream_workload(run, "correct", "verified")


def stream_refute(run: Run, seed: int) -> dict:
    """run_bench on the streamed gate-n mutant, cold, one per process."""
    return stream_workload(run, "gate-n", "violation")


def mutant_sweep(run: Run, seed: int) -> dict:
    """Repeated passes over the mutant set in one long-lived process."""
    result, _, peak = run.worker("sweep", m=SWEEP_M, seed=seed, seconds=run.seconds,
                                 doubles=DOUBLES, splits=SPLITS, setups=SETUPS)
    if result is None:
        raise RuntimeError("the mutant sweep process failed")
    run.attempted += result["circuits"] * len(result["pass_s"])
    run.failed += result["failed"]
    run.problems += result["problems"]
    return metrics(statistics.median(result["setup_s"]), result["pass_s"], [peak])


def smt_export(run: Run, seed: int) -> dict:
    """write_obligations for every qubit, cold, one per process."""
    path, setup_s = run.generate_file(SMT_M)
    outdir = run.work / "obligations"
    walls, rss, shapes = [], [], []

    def op():
        run.attempted += 1
        shutil.rmtree(outdir, ignore_errors=True)
        result, _, peak = run.worker("export", path=str(path), outdir=str(outdir))
        if result is None:
            run.failed += 1
            return
        if not shapes:
            run.problems.extend(refcheck.check_obligation_dir(outdir, SMT_M))
        shapes.append((result["names"], result["bytes"]))
        walls.append(result["wall_s"])
        rss.append(peak)

    run.rounds(op)
    shutil.rmtree(outdir, ignore_errors=True)
    if any(shape != shapes[0] for shape in shapes):
        run.problems.append("exports of one circuit differ in files or bytes")
    run.problems.extend(minisolver_check(run, seed))
    return metrics(setup_s, walls, rss)


def minisolver_check(run: Run, seed: int) -> list[str]:
    """At SMALL_M, tests/minisolver.py must find exactly the broken qubits."""
    rng = random.Random(seed)
    target = rng.randint(1, SMALL_M - 1)
    ordinal = rng.randint(1, SMALL_M - target)
    wrong_n = rng.choice([n for n in range(1, SMALL_M + 1) if n != ordinal + 1])
    own = refcheck.change_order(refcheck.textbook_gates(SMALL_M), target, ordinal, wrong_n)
    coef = refcheck.line_coefficients(SMALL_M, own)
    outdir = run.work / "small"
    shutil.rmtree(outdir, ignore_errors=True)
    result, _, _ = run.worker("smt_small", m=SMALL_M, spec=[target, ordinal, wrong_n],
                              outdir=str(outdir))
    if result is None:
        return ["writing the small obligations failed"]
    problems = []
    for label, paths in (("correct", result["correct"]), ("mutant", result["mutant"])):
        if len(paths) != SMALL_M:
            problems.append(f"{label}: {len(paths)} obligations for {SMALL_M} qubits")
            continue
        for i, path in enumerate(paths, start=1):
            broken = label == "mutant" and not refcheck.holds_on_all_inputs(coef[i], i, SMALL_M)
            out = run.work / "solver.out"
            with out.open("wb") as handle:
                _, _, code = run.child([sys.executable, str(MINISOLVER), path], stdout=handle)
            answer = out.read_text(encoding="utf-8").split()[:1]
            if code != 0 or answer != (["sat"] if broken else ["unsat"]):
                problems.append(f"minisolver says {answer} on {label} q{i}")
    return problems


# ---------------------------------------------------------------------------
# Traced run: every layer once, on the input of the workload where it matters
# ---------------------------------------------------------------------------


def traced(run: Run, seed: int) -> dict:
    values: dict[str, float] = {}

    def probe(task: str, **args) -> dict:
        run.attempted += 1
        result, _, _ = run.worker(task, **args)
        if result is None:
            raise RuntimeError(f"traced probe {task} failed")
        run.problems += result.pop("problems")
        return result

    def import_s() -> float:
        wall, _, code = run.child([sys.executable, "-c", "import qftverify"])
        if code != 0:
            raise RuntimeError("qftverify does not import")
        return wall

    values["cli.import_s"] = run.setup(import_s)
    file_path, _ = run.generate_file(FILE_M, reps=1)
    file_layers = probe("probe_file", path=str(file_path))
    values.update(probe("probe_stream", m=STREAM_M))
    values.update(probe("probe_refute", m=STREAM_M))
    sweep_layers = probe("probe_sweep", m=SWEEP_M, seed=seed, doubles=DOUBLES, splits=SPLITS)
    smt_path, _ = run.generate_file(SMT_M, reps=1)
    outdir = run.work / "obligations"
    values.update(probe("probe_smt", path=str(smt_path), outdir=str(outdir)))
    shutil.rmtree(outdir, ignore_errors=True)
    for key in ("checker.qubits_decided", "checker.verified", "checker.violations"):
        values[key] = file_layers.pop(key) + sweep_layers.pop(key)
    values.update(file_layers)
    values.update(sweep_layers)
    return {name: (value, unit_of(name)) for name, value in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kb"):
        return "kB"
    if name.endswith("_mb"):
        return "MB"
    return "count"


RUNNERS = {"verify-file": verify_file, "stream-verify": stream_verify,
           "stream-refute": stream_refute, "mutant-sweep": mutant_sweep,
           "smt-export": smt_export}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (SRC / "qftverify" / "__init__.py", MINISOLVER):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a source checkout",
                  file=sys.stderr)
            return 2
    run = Run(args.seconds)
    try:
        found = traced(run, args.seed) if args.trace else RUNNERS[args.workload](run, args.seed)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(found):
        print(f"error: measured {sorted(found)}, BENCHMARK.json declares {sorted(names)}",
              file=sys.stderr)
        return 1
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in found.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in found.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
