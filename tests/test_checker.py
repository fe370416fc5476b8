import json

import numpy as np
import pytest

from qftverify.abstraction import group_gates_by_line
from qftverify.bench import _qft_lines, scenario_error_spec
from qftverify.boolexpr import (
    FALSE,
    TRUE,
    SymbolicBitVector,
    and_,
    check_qubit,
    eval_bits,
    find_counterexample,
    run_abstract,
    target_vector,
    var,
)
from qftverify.checker import (
    CheckerConfig,
    TYPE_ERROR,
    VERIFIED,
    VIOLATION,
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
    _qft_circuit,
    generate_qft,
    inject_error,
    qft_gate_count,
    qft_line,
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
        assert all(rec.backend == "weights" for rec in report.records)

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
        verdict = report.records[2].verdict
        assert verdict.qubit == 3
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

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_lines_that_end_early_are_rejected(self, exhaustive):
        # one verified line of four is not a verified circuit
        with pytest.raises(ValueError, match="1 lines for 4 qubits"):
            verify_lines(4, qft_gate_count(4), [qft_line(4, 1)], CheckerConfig(exhaustive=exhaustive))

    def test_line_after_the_last_is_rejected(self):
        # a line after line m has no qubit to decide, even one without an H
        lines = [qft_line(2, 1), qft_line(2, 2), None]
        with pytest.raises(ValueError, match="more than 2 lines for 2 qubits"):
            verify_lines(2, qft_gate_count(2), lines, CheckerConfig(exhaustive=True))

    def test_deep_carry_witness_matches_concrete_run(self):
        # gate-n at m = 1024: the witness rides a carry through the whole line,
        # and both vectors must match integer execution of that line
        m = 1024
        spec = scenario_error_spec("gate-n", m)
        report = verify_lines(m, qft_gate_count(m), _qft_lines(m, spec), CheckerConfig())
        verdict = report.records[0].verdict
        assert verdict.status == VIOLATION
        sigma = tuple(verdict.counterexample[k] for k in range(1, m + 1))
        correct_line = _qft_circuit(m, (1,))
        actual = concrete_line_values(inject_error(correct_line, spec), sigma)[0]
        expected = concrete_line_values(correct_line, sigma)[0]
        assert bits_as_int(verdict.actual) == actual
        assert bits_as_int(verdict.expected) == expected
        assert actual != expected


def _circuit_with_line(m: int, i: int, rotations) -> CircuitDescription:
    """The canonical m-qubit circuit with line i's rotations replaced by
    ``rotations``, a list of (order, control) pairs after its H."""
    gates = []
    for j in range(1, m + 1):
        gates.append(GateInstance("H", j))
        pairs = rotations if j == i else zip(*qft_line(m, j))
        gates += [GateInstance("R", j, n=n, control=k) for n, k in pairs]
    return CircuitDescription(m, tuple(gates))


class TestCoefficientDecision:
    def _refuted(self, c: CircuitDescription, i: int):
        report = verify_circuit(c, CheckerConfig(exhaustive=True))
        verdict = report.records[i - 1].verdict
        assert verdict.status == VIOLATION
        sigma = tuple(verdict.counterexample[k] for k in range(1, c.m + 1))
        assert bits_as_int(verdict.actual) == concrete_line_values(c, sigma)[i - 1]
        assert verdict.actual != verdict.expected
        return verdict

    def test_forty_same_order_rotations_are_refuted(self):
        # 40 R(64) gates with distinct controls all land on the last bit, so
        # their carries as polynomials grow past any budget; as weights, each
        # control holds one 2^-64
        m = 64
        c = _circuit_with_line(m, 1, [(m, k) for k in range(2, 42)])
        verdict = self._refuted(c, 1)
        assert verdict.counterexample == {k: int(k == 2) for k in range(1, m + 1)}
        assert verdict.detail == "coefficient of b2 differs from 2^-2"

    def test_carry_out_of_the_half_turn_wraps(self):
        # two R(1) gates on one control add a full turn, which is no turn
        m = 6
        rotations = list(zip(*qft_line(m, 2)))
        rotations[2:2] = [(1, 5), (1, 5)]
        c = _circuit_with_line(m, 2, rotations)
        assert verify_circuit(c, CheckerConfig(exhaustive=True)).overall == VERIFIED

    def test_carry_into_the_half_turn_is_refuted(self):
        # two quarter turns on b1 make a half turn, and line 2 must not
        # depend on b1
        m = 6
        c = _circuit_with_line(m, 2, list(zip(*qft_line(m, 2))) + [(2, 1), (2, 1)])
        verdict = self._refuted(c, 2)
        assert verdict.counterexample == {k: int(k == 1) for k in range(1, m + 1)}
        assert verdict.actual == (1, 0, 0, 0, 0, 0)
        assert verdict.detail == "coefficient of b1 differs from 0"


class TestControlAfterItsH:
    """ROADMAP item 1: line 2 gets its H before it controls R(2) on line 1.

    The checker reads a control's initial bit, but a real controlled phase
    reads the control line's state at the gate, which the H has already put
    into superposition."""

    CIRCUIT = CircuitDescription(2, (GateInstance("H", 1), GateInstance("H", 2),
                                     GateInstance("R", 1, n=2, control=2)))

    def test_true_controlled_phase_product_is_not_the_transform(self):
        # basis index 2*b1 + b2; a controlled phase is diagonal, so target
        # and control play symmetric roles
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        h1, h2 = np.kron(h, np.eye(2)), np.kron(np.eye(2), h)
        cr2 = np.diag([1, 1, 1, 1j])
        textbook = h2 @ cr2 @ h1
        k = np.arange(4)
        dft = np.exp(2j * np.pi * np.outer(k, k) / 4) / 2
        assert np.allclose(textbook[[0, 2, 1, 3]], dft)  # the transform, bit-reversed
        product = cr2 @ h2 @ h1
        assert np.abs(product - textbook).max() == pytest.approx(2 ** -0.5)

    @pytest.mark.xfail(reason="ROADMAP item 1: a rotation controlled by a line that "
                              "already had its H is read as that line's initial bit")
    def test_is_not_verified(self):
        assert verify_circuit(self.CIRCUIT).overall != VERIFIED
