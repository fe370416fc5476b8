"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The solver-agreement criterion needs an external bit-vector solver on
PATH (or QFTV_SOLVER set) and skips cleanly without one.
"""

import random
import time
from fractions import Fraction

import pytest

from qftverify.bench import run_position_sweep
from qftverify.boolexpr import eval_bits, run_abstract, target_vector
from qftverify.checker import CheckerConfig, VERIFIED, VIOLATION, verify_circuit
from qftverify.circuit import (
    enumerate_error_specs,
    generate_qft,
    inject_error,
    qft_gate_count,
)
from qftverify.oracle import cross_check, per_qubit_phase
from qftverify.smt import solver_from_env
from helpers import all_basis_inputs, bits_as_int, spearman, split_rotation, substitution_sites

# Published gate counts for the benchmark sizes.
GATE_COUNT_TABLE = {
    16: 136,
    32: 528,
    64: 2_080,
    128: 8_256,
    256: 32_896,
    512: 131_328,
    1024: 524_800,
    2048: 2_098_176,
    4096: 8_390_656,
    8192: 33_558_528,
    10000: 50_005_000,
}

DESK_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)


@pytest.fixture(scope="module")
def error_sweep():
    """Exhaustive single-error mutation sweep for every m <= 8.

    Returns (cases, elapsed_seconds); each case is (m, spec, circuit, report).
    """
    start = time.perf_counter()
    cases = []
    for m in range(1, 9):
        base = generate_qft(m)
        for spec in enumerate_error_specs(base):
            mutated = inject_error(base, spec)
            report = verify_circuit(mutated)
            cases.append((m, spec, mutated, report))
    return cases, time.perf_counter() - start


def test_criterion_1_gate_count_reproduction():
    start = time.perf_counter()
    for m, published in GATE_COUNT_TABLE.items():
        assert qft_gate_count(m) == published, f"m={m}"
    count_elapsed = time.perf_counter() - start
    assert count_elapsed < 1.0, f"count computation took {count_elapsed:.3f}s"
    # the formula is backed by materialized circuits at desk scale
    for m in DESK_SIZES:
        assert generate_qft(m).gate_count == qft_gate_count(m) == GATE_COUNT_TABLE[m]
    print(f"\ncriterion 1 (gate counts): PASS - {len(GATE_COUNT_TABLE)} table rows exact, "
          f"counts in {count_elapsed * 1000:.1f} ms, materialized up to m=2048")


def test_criterion_2_correct_circuits_verified():
    start = time.perf_counter()
    circuits = [generate_qft(m) for m in DESK_SIZES]
    gates = [c.gate_count for c in circuits]
    # a textbook line takes microseconds, near the host's jitter: each qubit
    # keeps its best of eight runs, two in each of four passes, up and down
    # the sizes in turn, so a slow spell of the host has to cover every pass
    # of a size to show, and the worst of those bests counts
    best: list = [None] * len(circuits)
    for sweep in range(4):
        order = reversed(range(len(circuits))) if sweep % 2 else range(len(circuits))
        for k in order:
            for _ in range(2):
                report = verify_circuit(circuits[k], CheckerConfig())
                assert report.overall == VERIFIED, f"m={circuits[k].m} not verified"
                assert len(report.records) == circuits[k].m
                millis = [rec.millis for rec in report.records]
                best[k] = millis if best[k] is None else list(map(min, best[k], millis))
    worst_ms = [max(b) for b in best]
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 2 took {elapsed:.0f}s"
    rank = spearman(gates, worst_ms)
    nondecreasing = all(a <= b for a, b in zip(worst_ms, worst_ms[1:]))
    assert nondecreasing or rank >= 0.9, \
        f"time does not scale with gates: rho={rank:.3f}, worst qubit ms {worst_ms}"
    print(f"\ncriterion 2 (correct circuits m=16..2048): PASS - all verified in "
          f"{elapsed:.1f}s, time-vs-gates rank correlation {rank:.3f}")


def test_criterion_3_exhaustive_error_sweep(error_sweep):
    cases, elapsed = error_sweep
    assert elapsed < 120.0, f"sweep took {elapsed:.0f}s"
    false_passes = [(m, spec) for m, spec, _, report in cases if report.overall == VERIFIED]
    assert not false_passes, f"undetected mutations: {false_passes[:5]}"
    kinds = {type(spec).__name__ for _, spec, _, _ in cases}
    assert len(kinds) == 6, f"sweep missed error kinds: {kinds}"
    print(f"\ncriterion 3 (error sweep m<=8): PASS - {len(cases)} mutations, "
          f"0 false passes, {elapsed:.1f}s")


def test_criterion_4_split_rotation_equivalence():
    rng = random.Random(20240817)
    checked = 0
    for m in (4, 8, 16):
        base = generate_qft(m)
        sites = substitution_sites(base)
        for _ in range(10):
            site = rng.choice(sites)
            report = verify_circuit(split_rotation(base, site))
            assert report.overall == VERIFIED, f"m={m} site={site} rejected"
            checked += 1
    print(f"\ncriterion 4 (rotation splitting): PASS - {checked} substituted circuits verified")


def test_criterion_5_oracle_fidelity():
    start = time.perf_counter()
    for m in range(1, 9):
        circuit = generate_qft(m)
        outputs = run_abstract(circuit)
        for bits in all_basis_inputs(m):
            sigma = {k + 1: bits[k] for k in range(m)}
            for i in range(1, m + 1):
                abstract = Fraction(bits_as_int(eval_bits(outputs.qubit(i), sigma)), 2 ** m)
                assert abstract == per_qubit_phase(bits, i), f"m={m} i={i} bits={bits}"
        report = cross_check(circuit)
        assert report.ok, f"m={m}: oracle mismatch (max dev {report.max_deviation:.2e})"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.0f}s"
    print(f"\ncriterion 5 (oracle fidelity m<=8): PASS - exact phases and "
          f"simulation within 1e-9, {elapsed:.1f}s")


def test_criterion_6_counterexamples_self_validate(error_sweep):
    cases, _ = error_sweep
    violations = 0
    for m, spec, circuit, report in cases:
        for rec in report.records:
            verdict = rec.verdict
            if verdict.status != VIOLATION:
                continue
            violations += 1
            assert verdict.counterexample is not None
            assert verdict.expected is not None
            assert verdict.actual != verdict.expected
            expected = eval_bits(target_vector(verdict.qubit, m), verdict.counterexample)
            assert expected == verdict.expected
            outputs = run_abstract(circuit)
            vec = outputs.qubit(verdict.qubit)
            if vec is None:
                # the line never left its control type: no data value exists,
                # so no assignment can make it match the target form
                assert verdict.actual is None
            else:
                assert eval_bits(vec, verdict.counterexample) == verdict.actual
    assert violations > 0
    print(f"\ncriterion 6 (counterexample validity): PASS - {violations} violations, "
          f"all self-validating")


def test_criterion_7_smt_agreement(error_sweep):
    solver = solver_from_env()
    if solver is None:
        print("\ncriterion 7 (solver agreement): SKIP - no bit-vector solver configured")
        pytest.skip("no QF_BV solver configured; set QFTV_SOLVER or install one on PATH")
    smt_cfg = CheckerConfig(solver=solver)
    compared = 0
    for m in (16, 32, 64):
        circuit = generate_qft(m)
        assert verify_circuit(circuit, smt_cfg).overall == VERIFIED
        compared += 1
    cases, _ = error_sweep
    for m, spec, circuit, weights_report in cases:
        smt_report = verify_circuit(circuit, smt_cfg)
        assert smt_report.overall == weights_report.overall, f"m={m} {spec}"
        compared += 1
        for rec in smt_report.records:
            verdict = rec.verdict
            if verdict.status == VIOLATION and verdict.actual is not None:
                assert verdict.actual != verdict.expected
    print(f"\ncriterion 7 (solver agreement): PASS - {compared} circuits agree across backends")


def test_criterion_8_error_position_trend():
    # the failing line costs a fraction of a microsecond per gate, so eight
    # positions 146 gates apart keep neighbours tens of microseconds apart
    positions = [1 + 146 * k for k in range(8)]
    result = run_position_sweep(1024, positions, repeats=5, measure_memory=False)
    assert all(rec.verdict == VIOLATION for rec in result.records)
    times = [rec.time_s for rec in result.records]
    rank = spearman(positions, times)
    assert rank <= -0.8, \
        f"expected decreasing time with error position, rho={rank:.3f}, times {times}"
    print(f"\ncriterion 8 (error-position trend, m=1024): PASS - rank correlation {rank:.3f}")
