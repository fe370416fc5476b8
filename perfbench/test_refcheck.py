"""Each benchmark check must reject a wrong output and accept a right one.

Run from the repository root: python -m pytest perfbench
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import refcheck  # noqa: E402
from qftverify import (  # noqa: E402
    CheckerConfig,
    IncorrectGateOrder,
    MissingH,
    generate_qft,
    inject_error,
    verify_circuit,
    write_obligations,
)
from worker import plain, report_records  # noqa: E402

M = 5


def check(circuit):
    report = verify_circuit(circuit, CheckerConfig(exhaustive=True))
    return report, refcheck.check_report(circuit.m, plain(circuit), report.overall,
                                         report_records(report))


def test_real_reports_pass():
    base = generate_qft(M)
    for circuit in (base, inject_error(base, IncorrectGateOrder(1, 2, 2)),
                    inject_error(base, MissingH(2))):
        assert check(circuit)[1] == []


def test_fabricated_verified_verdict_is_a_false_pass():
    mutant = inject_error(generate_qft(M), IncorrectGateOrder(target=1, ordinal=2, wrong_n=2))
    report, _ = check(mutant)
    faked = [(q, "verified", None, None, None) for q, *_ in report_records(report)]
    problems = refcheck.check_report(M, plain(mutant), "verified", faked)
    assert any("false pass" in p for p in problems)


def test_counterexample_that_does_not_separate_is_rejected():
    mutant = inject_error(generate_qft(M), IncorrectGateOrder(target=1, ordinal=2, wrong_n=2))
    report, _ = check(mutant)
    records = report_records(report)
    q, status, cex, expected, actual = next(r for r in records if r[1] == "violation")
    zeros = {k: 0 for k in range(1, M + 1)}  # every line reads 0 on the all-zero input
    records[q - 1] = (q, status, zeros, (0,) * M, (0,) * M)
    problems = refcheck.check_report(M, plain(mutant), report.overall, records)
    assert any("does not separate" in p for p in problems)
    # Right separation but wrong bits is rejected too.
    records[q - 1] = (q, status, cex, expected, tuple(1 - b for b in actual))
    assert refcheck.check_report(M, plain(mutant), report.overall, records)


def test_type_error_on_a_well_typed_circuit_is_rejected():
    base = generate_qft(M)
    problems = refcheck.check_report(M, plain(base), "type_error", [])
    assert problems == ["type_error on a circuit that passes the wire check"]
    mutant = inject_error(base, MissingH(2))
    assert refcheck.check_report(M, plain(mutant), "violation", []) != []


def test_obligation_set_with_a_qubit_missing_is_rejected(tmp_path):
    paths = write_obligations(generate_qft(M), tmp_path)
    assert refcheck.check_obligation_dir(tmp_path, M) == []
    paths[2].unlink()
    problems = refcheck.check_obligation_dir(tmp_path, M)
    assert problems and "q3.smt2" in problems[0]


def test_obligation_with_a_rotation_too_few_is_rejected(tmp_path):
    paths = write_obligations(generate_qft(M), tmp_path)
    paths[0].write_text(paths[1].read_text(encoding="utf-8"), encoding="utf-8")
    problems = refcheck.check_obligation_dir(tmp_path, M)
    assert any("bvadd" in p for p in problems)


def test_circuit_file_and_cli_output_checks():
    doc = {"qubits": 3, "gates": [{"kind": "H", "target": 1},
                                  {"kind": "R", "n": 2, "target": 1, "control": 2},
                                  {"kind": "R", "n": 3, "target": 1, "control": 3},
                                  {"kind": "H", "target": 2},
                                  {"kind": "R", "n": 2, "target": 2, "control": 3},
                                  {"kind": "H", "target": 3}]}
    assert refcheck.check_circuit_doc(doc, 3) == []
    doc["gates"][2]["n"] = 2
    assert refcheck.check_circuit_doc(doc, 3) != []
    out = {"overall": "verified", "per_qubit": [{"qubit": q, "verdict": "verified"}
                                                 for q in (1, 2, 3)]}
    assert refcheck.check_verify_json(out, 3) == []
    del out["per_qubit"][1]
    assert refcheck.check_verify_json(out, 3) != []


def test_coefficients_agree_with_enumerating_every_input():
    rng = random.Random(7)
    for m in (2, 3, 4):
        for _ in range(40):
            gates = refcheck.textbook_gates(m)
            for k, gate in enumerate(gates):
                if gate[0] == "R" and rng.random() < 0.3:
                    gates[k] = ("R", gate[1], rng.randint(1, m), gate[3])
            coef = refcheck.line_coefficients(m, gates)
            for i in range(1, m + 1):
                want = refcheck.target_coefficients(i, m)
                every = all(
                    refcheck.phase(coef[i], dict(enumerate(bits, 1)), m)
                    == refcheck.phase(want, dict(enumerate(bits, 1)), m)
                    for bits in itertools.product((0, 1), repeat=m))
                assert refcheck.holds_on_all_inputs(coef[i], i, m) == every
                assert (refcheck.separating_input(coef[i], i, m) is None) == every
