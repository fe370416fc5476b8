"""Child side of the benchmark: each invocation is one fresh process.

Usage: worker.py TASK ARGS_JSON RESULT_PATH

The process imports qftverify, runs TASK with the keyword arguments in
ARGS_JSON, and writes a JSON result to RESULT_PATH.  Timed spans wrap calls
to the package's public functions only; checks against refcheck run after
the timed work.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time
from pathlib import Path

import qftverify
from qftverify import (
    BenchConfig,
    CheckerConfig,
    CircuitDescription,
    GateInstance,
    QubitRecord,
    VerificationReport,
    anf_normalize,
    check_qubit,
    enumerate_error_specs,
    eval_bits,
    find_counterexample,
    generate_qft,
    inject_error,
    iter_qft_gates,
    parse_circuit,
    run_abstract,
    run_bench,
    scenario_error_spec,
    target_vector,
    typecheck,
    verify_circuit,
    write_obligations,
)
from qftverify.abstraction import group_gates_by_line
from qftverify.circuit import ErrorInjectionError

import refcheck

clock = time.perf_counter


def plain(circuit: CircuitDescription) -> list[tuple]:
    return [("H", g.target) if g.kind == "H" else ("R", g.target, g.n, g.control)
            for g in circuit.gates]


def from_plain(m: int, gates: list[tuple]) -> CircuitDescription:
    return CircuitDescription(m, tuple(
        GateInstance("H", g[1]) if g[0] == "H" else GateInstance("R", g[1], n=g[2], control=g[3])
        for g in gates))


def report_records(report: VerificationReport) -> list[tuple]:
    """(qubit, status, counterexample, expected, actual) per record, as refcheck takes them."""
    return [(r.verdict.qubit, r.verdict.status, r.verdict.counterexample, r.verdict.expected,
             r.verdict.actual) for r in report.records]


def check_reports(m: int, circuits, signatures) -> list[str]:
    problems = []
    for circuit, (overall, records) in zip(circuits, signatures):
        problems += refcheck.check_report(m, plain(circuit), overall, records)
    return problems


# ---------------------------------------------------------------------------
# Timed operations
# ---------------------------------------------------------------------------


def ready() -> dict:
    return {"version": qftverify.__version__}


def stream(m: int, scenario: str) -> dict:
    cfg = BenchConfig(sizes=[m], scenarios=[scenario], allow_huge=True, size_cap=m,
                      measure_memory=False)
    start = clock()
    result = run_bench(cfg)
    wall = clock() - start
    rec = result.records[0]
    spec = scenario_error_spec(scenario, m)
    return {"wall_s": wall, "verdict": rec.verdict, "gates": rec.gates, "qubits": rec.qubits,
            "spec": None if spec is None else [type(spec).__name__, spec.target, spec.ordinal,
                                               spec.wrong_n]}


def export(path: str, outdir: str) -> dict:
    circuit = parse_circuit(Path(path).read_text(encoding="utf-8"))
    start = clock()
    paths = write_obligations(circuit, outdir)
    wall = clock() - start
    sizes = [p.stat().st_size for p in paths]
    return {"wall_s": wall, "names": [p.name for p in paths], "bytes": sum(sizes),
            "largest": max(sizes)}


def build_mutants(m: int, seed: int, doubles: int, splits: int):
    """Every legal single-error mutant, then seeded double-error mutants and
    rotation-split equivalents.  Returns (circuits, singles, inject seconds)."""
    base = generate_qft(m)
    start = clock()
    specs = list(enumerate_error_specs(base))
    circuits = [inject_error(base, spec) for spec in specs]
    rng = random.Random(seed)
    made = 0
    while made < doubles:
        first, second = rng.choice(specs), rng.choice(specs)
        try:
            circuits.append(inject_error(inject_error(base, first), second))
        except ErrorInjectionError:
            continue
        made += 1
    inject_s = clock() - start
    singles = len(specs)
    for _ in range(splits):
        gates = refcheck.textbook_gates(m)
        for _ in range(rng.randint(1, 3)):
            sites = [k for k, g in enumerate(gates) if g[0] == "R" and g[2] < m]
            gates = refcheck.split_rotation(gates, rng.choice(sites))
        circuits.append(from_plain(m, gates))
    return circuits, singles, inject_s


def verify_all(circuits, cfg):
    signatures, failed = [], 0
    for circuit in circuits:
        try:
            report = verify_circuit(circuit, cfg)
        except Exception:  # counted as a failed operation, never hidden
            failed += 1
            signatures.append(None)
            continue
        signatures.append((report.overall, report_records(report)))
    return signatures, failed


def sweep(m: int, seed: int, seconds: float, doubles: int, splits: int, setups: int) -> dict:
    """Warm mutation sweep: repeated passes in this one process."""
    setup_s = []
    for _ in range(setups):
        start = clock()
        circuits, _, _ = build_mutants(m, seed, doubles, splits)
        setup_s.append(clock() - start)
    cfg = CheckerConfig(exhaustive=True)
    pass_s, failed, unsteady = [], 0, 0
    first = None
    window = clock()
    while True:
        start = clock()
        signatures, pass_failed = verify_all(circuits, cfg)
        pass_s.append(clock() - start)
        failed += pass_failed
        if first is None:
            first = signatures
        elif signatures != first:
            unsteady += 1
        del signatures  # hold one pass beside the first, so peak RSS stops growing
        if clock() - window >= seconds:
            break
    kept = [(c, s) for c, s in zip(circuits, first) if s is not None]
    problems = check_reports(m, [c for c, _ in kept], [s for _, s in kept])
    if unsteady:
        problems.append(f"{unsteady} passes gave other verdicts than the first")
    return {"setup_s": setup_s, "pass_s": pass_s, "circuits": len(circuits),
            "failed": failed, "problems": problems[:20]}


def check_file(path: str, m: int) -> list[str]:
    """Not timed: the circuit file must decode to the textbook gate list."""
    return refcheck.check_circuit_doc(json.loads(Path(path).read_text(encoding="utf-8")), m)


def smt_small(m: int, spec: list[int], outdir: str) -> dict:
    base = generate_qft(m)
    mutant = inject_error(base, qftverify.IncorrectGateOrder(*spec))
    correct = write_obligations(base, Path(outdir) / "correct")
    broken = write_obligations(mutant, Path(outdir) / "mutant")
    return {"correct": [str(p) for p in correct], "mutant": [str(p) for p in broken]}


# ---------------------------------------------------------------------------
# Traced layer probes: spans around single public calls
# ---------------------------------------------------------------------------


def timed(fn, *args):
    start = clock()
    value = fn(*args)
    return value, clock() - start


def probe_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    circuit, parse_s = timed(parse_circuit, text)
    m = circuit.m
    _, typecheck_s = timed(typecheck, circuit)
    _, group_s = timed(group_gates_by_line, circuit)
    outputs, abstract_s = timed(run_abstract, circuit)
    verdicts, decide_s = timed(lambda: [check_qubit(outputs, i) for i in range(1, m + 1)])
    records = [QubitRecord(verdict=v, backend="anf", millis=0.0) for v in verdicts]
    overall = "verified" if all(v.status == "verified" for v in verdicts) else "violation"
    report = VerificationReport(qubits=m, gate_count=circuit.gate_count, overall=overall,
                                records=records)
    doc, report_s = timed(report.to_json)
    return {
        "circuit.parse_s": parse_s,
        "abstraction.typecheck_s": typecheck_s,
        "abstraction.group_s": group_s,
        "abstraction.interpret_s": abstract_s - typecheck_s - group_s,
        "checker.decide_s": decide_s,
        "checker.report_s": report_s,
        "circuit.gates": circuit.gate_count,
        "checker.qubits_decided": len(verdicts),
        "checker.verified": sum(v.status == "verified" for v in verdicts),
        "checker.violations": sum(v.status == "violation" for v in verdicts),
        "problems": refcheck.check_verify_json(json.loads(doc), m),
    }


def probe_stream(m: int) -> dict:
    start = clock()
    for _ in iter_qft_gates(m):
        pass
    generate_s = clock() - start
    result = stream(m, "correct")
    problems = [] if result["verdict"] == "verified" else [f"stream gave {result['verdict']}"]
    return {"circuit.generate_s": generate_s, "bench.stream_s": result["wall_s"] - generate_s,
            "problems": problems}


def probe_refute(m: int) -> dict:
    """The failing line of the gate-n mutant, layer by layer."""
    spec = scenario_error_spec("gate-n", m)
    line = inject_error(CircuitDescription(m, tuple(itertools.islice(iter_qft_gates(m), m))), spec)
    outputs, interpret_s = timed(run_abstract, line)
    actual, target = outputs.qubit(1), target_vector(1, m)
    start = clock()
    diff = None
    for got, want in zip(actual.bits, target.bits):
        if got is want:
            continue
        got_anf, want_anf = anf_normalize(got), anf_normalize(want)
        if got_anf != want_anf:
            diff = got_anf ^ want_anf
            break
    anf_s = clock() - start
    if diff is None:
        return {"problems": ["gate-n line matched its target"]}
    start = clock()
    cex = find_counterexample(diff, m)
    expected, got_bits = eval_bits(target, cex), eval_bits(actual, cex)
    witness_s = clock() - start
    own = refcheck.change_order(refcheck.textbook_line(1, m), 1, m - 1, m - 1)
    row = refcheck.line_coefficients(m, own)[1]
    return {"abstraction.interpret_line_s": interpret_s, "boolexpr.anf_s": anf_s,
            "checker.witness_s": witness_s,
            "problems": refcheck.check_violation(row, 1, m, cex, expected, got_bits)}


def probe_sweep(m: int, seed: int, doubles: int, splits: int) -> dict:
    circuits, singles, inject_s = build_mutants(m, seed, doubles, splits)
    signatures, failed = verify_all(circuits[:singles], CheckerConfig(exhaustive=True))
    if failed:
        return {"problems": [f"{failed} verifications raised"]}
    records = [r for _, recs in signatures for r in recs]
    return {
        "circuit.inject_s": inject_s,
        "checker.qubits_decided": len(records),
        "checker.verified": sum(r[1] == "verified" for r in records),
        "checker.violations": sum(r[1] == "violation" for r in records),
        "checker.type_errors": sum(s[0] == "type_error" for s in signatures),
        "problems": check_reports(m, circuits[:singles], signatures)[:20],
    }


def probe_smt(path: str, outdir: str) -> dict:
    result = export(path, outdir)
    return {"smt.largest_kb": result["largest"] / 1e3, "smt.total_mb": result["bytes"] / 1e6,
            "smt.obligations": len(result["names"]), "problems": []}


TASKS = {f.__name__: f for f in (ready, stream, export, sweep, check_file, smt_small, probe_file,
                                 probe_stream, probe_refute, probe_sweep, probe_smt)}


def main() -> int:
    task, args, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
    Path(out).write_text(json.dumps(TASKS[task](**args)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
