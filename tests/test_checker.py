import gc
import json

import pytest

from qftverify.abstraction import SymbolicBitVector, eval_bits, group_gates_by_line, run_abstract
from qftverify.bench import _qft_lines, scenario_error_spec
from qftverify.boolexpr import _VARS, TRUE, FALSE, and_, var
from qftverify.checker import (
    CheckerConfig,
    SolverUnavailableError,
    UNRESOLVED,
    TYPE_ERROR,
    VERIFIED,
    VIOLATION,
    check_qubit,
    find_counterexample,
    target_vector,
    verify_circuit,
    verify_lines,
)
from qftverify.circuit import (
    CircuitDescription,
    DuplicateH,
    GateInstance,
    IncorrectControl,
    IncorrectGateOrder,
    MissingH,
    generate_qft,
    inject_error,
    qft_gate_count,
)
from helpers import bits_as_int, concrete_line_values, eval_poly, split_rotation


class TestTargetVector:
    def test_middle_qubit(self):
        assert target_vector(2, 3) == SymbolicBitVector(3, (var(2), var(3), FALSE))

    def test_last_qubit(self):
        assert target_vector(3, 3) == SymbolicBitVector(3, (var(3), FALSE, FALSE))

    def test_single_qubit(self):
        assert target_vector(1, 1) == SymbolicBitVector(1, (var(1),))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            target_vector(4, 3)


class TestFindCounterexample:
    def test_single_monomial(self):
        diff = var(2)
        assert find_counterexample(diff, 3) == {1: 0, 2: 1, 3: 0}

    def test_constant_term_means_all_false(self):
        diff = TRUE ^ var(1)
        assignment = find_counterexample(diff, 2)
        assert assignment == {1: 0, 2: 0}
        assert eval_poly(diff, assignment) == 1

    def test_inclusion_minimal_choice(self):
        diff = and_(var(1), var(2)) ^ var(1)
        assignment = find_counterexample(diff, 2)
        assert assignment == {1: 1, 2: 0}
        assert eval_poly(diff, assignment) == 1

    def test_zero_polynomial_is_a_contract_violation(self):
        with pytest.raises(ValueError):
            find_counterexample(FALSE, 2)

    def test_always_evaluates_to_one(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            nv = rng.randint(1, 6)
            diff = FALSE
            for _ in range(rng.randint(1, 8)):
                monomial = TRUE
                for k in rng.sample(range(1, nv + 1), rng.randint(0, nv)):
                    monomial = and_(monomial, var(k))
                diff = diff ^ monomial
            if not diff:
                continue
            assert eval_poly(diff, find_counterexample(diff, nv)) == 1


class TestCheckQubit:
    def test_correct_circuit_verified(self):
        outs = run_abstract(generate_qft(3))
        assert check_qubit(outs, 1).status == VERIFIED

    def test_wrong_order_violation_self_validates(self):
        mutated = inject_error(generate_qft(3), IncorrectGateOrder(1, 1, 3))
        verdict = check_qubit(run_abstract(mutated), 1)
        assert verdict.status == VIOLATION
        assert verdict.actual != verdict.expected
        outs = run_abstract(mutated)
        assert eval_bits(outs.qubit(1), verdict.counterexample) == verdict.actual
        assert eval_bits(target_vector(1, 3), verdict.counterexample) == verdict.expected

    def test_split_rotation_is_accepted(self):
        # replacing a rotation with two of the next finer order, same control,
        # leaves the accumulated rotation unchanged
        c = generate_qft(3)
        split = split_rotation(c, 1)  # the order-2 rotation on qubit 1
        outs = run_abstract(split)
        for i in (1, 2, 3):
            assert check_qubit(outs, i).status == VERIFIED


class TestVerifyCircuit:
    def test_correct_three_qubits(self):
        report = verify_circuit(generate_qft(3))
        assert report.overall == VERIFIED
        assert [rec.verdict.qubit for rec in report.records] == [1, 2, 3]
        assert all(rec.backend == "anf" for rec in report.records)

    def test_sixteen_qubit_control_error(self):
        mutated = inject_error(generate_qft(16), IncorrectControl(target=1, ordinal=1, wrong_control=3))
        report = verify_circuit(mutated)
        assert report.overall == VIOLATION
        assert report.records[-1].verdict.qubit == 1

    def test_type_error_verdict(self):
        report = verify_circuit(inject_error(generate_qft(3), MissingH(2)))
        assert report.overall == TYPE_ERROR
        assert report.type_error_kind == "rn-data-port-got-control"
        assert report.type_error_line == 2
        assert report.records == []

    def test_short_circuit_stops_at_first_failure(self):
        mutated = inject_error(generate_qft(5), IncorrectGateOrder(target=2, ordinal=1, wrong_n=4))
        report = verify_circuit(mutated)
        assert [rec.verdict.status for rec in report.records] == [VERIFIED, VIOLATION]

    def test_exhaustive_checks_every_qubit(self):
        mutated = inject_error(generate_qft(5), IncorrectGateOrder(target=2, ordinal=1, wrong_n=4))
        report = verify_circuit(mutated, CheckerConfig(exhaustive=True))
        assert len(report.records) == 5
        assert report.overall == VIOLATION

    def test_lowest_failing_qubit_reported_first(self):
        c = generate_qft(4)
        c = inject_error(c, IncorrectGateOrder(target=2, ordinal=1, wrong_n=4))
        c = inject_error(c, IncorrectGateOrder(target=3, ordinal=1, wrong_n=4))
        report = verify_circuit(c, CheckerConfig(exhaustive=True))
        failing = [rec.verdict.qubit for rec in report.records if rec.verdict.status == VIOLATION]
        assert failing == sorted(failing) and failing[0] == 2

    def test_bare_line_is_a_violation_not_a_type_error(self):
        # the last line of the circuit has no rotations, so removing its H
        # leaves a well-typed circuit whose output cannot match the target
        mutated = inject_error(generate_qft(3), MissingH(3))
        report = verify_circuit(mutated, CheckerConfig(exhaustive=True))
        assert report.overall == VIOLATION
        verdict = report.record_for(3).verdict
        assert verdict.status == VIOLATION
        assert verdict.actual is None
        assert verdict.counterexample is not None
        assert verdict.expected is not None

    def test_type_error_outranks_earlier_violation(self):
        # line 1 is refuted, but the whole circuit is typed before any qubit
        # is decided, so the later duplicate H on line 5 is what gets reported
        c = inject_error(generate_qft(5), IncorrectGateOrder(1, 1, 3))
        c = inject_error(c, DuplicateH(5))
        inserted = max(k for k, g in enumerate(c.gates, start=1) if g.kind == "H" and g.target == 5)
        report = verify_circuit(c)
        assert report.overall == TYPE_ERROR
        assert report.type_error_kind == "duplicate-h"
        assert report.type_error_gate == inserted
        assert report.records == []

    def test_budget_overflow_without_solver_is_unresolved(self):
        # many same-position rotations with distinct controls build carry
        # polynomials whose normal forms exceed a tiny budget
        m = 14
        gates = [GateInstance("H", 1)]
        gates += [GateInstance("R", 1, n=m, control=k) for k in range(2, m + 1)]
        gates += [GateInstance("H", k) for k in range(2, m + 1)]
        c = CircuitDescription(m, tuple(gates))
        report = verify_circuit(c, CheckerConfig(anf_budget=50))
        assert report.overall == UNRESOLVED
        assert report.records[0].verdict.status == UNRESOLVED

    @pytest.mark.parametrize("backend", ["SMT", "z3", ""])
    def test_unknown_backend_is_rejected(self, backend):
        with pytest.raises(ValueError, match="backend"):
            CheckerConfig(backend=backend)

    def test_smt_backend_without_solver_raises(self):
        with pytest.raises(SolverUnavailableError):
            verify_circuit(generate_qft(2), CheckerConfig(backend="smt"))

    def test_report_json_schema(self):
        mutated = inject_error(generate_qft(3), IncorrectGateOrder(1, 1, 3))
        doc = json.loads(verify_circuit(mutated).to_json())
        assert doc["overall"] == VIOLATION
        assert doc["qubits"] == 3 and doc["gates"] == 6
        entry = doc["per_qubit"][0]
        assert set(entry) >= {"qubit", "verdict", "backend", "millis"}
        assert entry["counterexample"].keys() == {"b1", "b2", "b3"}
        assert entry["expected"].startswith("0.") and entry["actual"].startswith("0.")


class TestVerifyLines:
    def test_short_circuit_stops_pulling_lines(self):
        c = inject_error(generate_qft(6), IncorrectGateOrder(target=2, ordinal=1, wrong_n=4))
        lines = group_gates_by_line(c)

        def feed():
            yield lines[0]
            yield lines[1]  # refuted
            raise AssertionError("line 3 was pulled after the first failing line")

        report = verify_lines(6, c.gate_count, feed(), CheckerConfig())
        assert report.overall == VIOLATION
        assert [rec.verdict.status for rec in report.records] == [VERIFIED, VIOLATION]

    def test_deep_carry_witness_matches_concrete_run(self):
        # gate-n at m = 1024: the witness rides a carry through the whole line,
        # and both vectors must match integer execution of that line
        m = 1024
        spec = scenario_error_spec("gate-n", m)
        report = verify_lines(m, qft_gate_count(m), _qft_lines(m, spec), CheckerConfig())
        verdict = report.records[0].verdict
        assert verdict.status == VIOLATION
        sigma = tuple(verdict.counterexample[k] for k in range(1, m + 1))
        mutated_line = next(_qft_lines(m, spec))
        correct_line = next(_qft_lines(m, None))
        actual = concrete_line_values(CircuitDescription(m, tuple(mutated_line)), sigma)[0]
        expected = concrete_line_values(CircuitDescription(m, tuple(correct_line)), sigma)[0]
        assert bits_as_int(verdict.actual) == actual
        assert bits_as_int(verdict.expected) == expected
        assert actual != expected


def _live_polys() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is frozenset)


class TestExpressionLifetime:
    def test_live_nodes_do_not_grow_across_verifications(self):
        # a verification's polynomials die with it; only the var cache, one
        # polynomial per index, outlives a call, so four distinct deep-carry
        # bugs on the same line leave both counts flat
        m = 64
        counts = []
        for k in range(1, 5):
            spec = IncorrectGateOrder(target=1, ordinal=m - 1, wrong_n=m - k)
            report = verify_circuit(inject_error(generate_qft(m), spec))
            assert report.overall == VIOLATION
            counts.append((_live_polys(), len(_VARS)))
        assert counts == [counts[0]] * len(counts)
