import json
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from qftverify.abstraction import CircuitTypeError, group_gates_by_line
from qftverify.boolexpr import eval_bits, run_abstract, target_vector
from qftverify.checker import CheckerConfig, TYPE_ERROR, UNRESOLVED, VIOLATION, verify_circuit
from qftverify.circuit import (
    CircuitDescription,
    GateInstance,
    IncorrectControl,
    IncorrectGateOrder,
    MissingH,
    enumerate_error_specs,
    generate_qft,
    inject_error,
)
from qftverify.smt import (
    MAX_TIMEOUT_S,
    ModelParseError,
    SolverConfig,
    emit_smt2,
    invoke_solver,
    parse_model,
    write_obligations,
)

import minisolver
from helpers import bits_as_int, concrete_line_values

MINISOLVER = Path(__file__).parent / "minisolver.py"


def minisolver_config(timeout: float | None = None) -> SolverConfig:
    return SolverConfig(command=f"{sys.executable} {MINISOLVER}", timeout_s=timeout)


GOLDEN_Q3_OF_3 = """\
(set-logic QF_BV)
(declare-const b1 Bool)
(declare-const b2 Bool)
(declare-const b3 Bool)
(define-fun s0 () (_ BitVec 3) (ite b3 (concat #b1 (_ bv0 2)) (_ bv0 3)))
(define-fun actual () (_ BitVec 3) s0)
(define-fun target () (_ BitVec 3) (concat (ite b3 #b1 #b0) (_ bv0 2)))
(assert (not (= actual target)))
(check-sat)
(get-model)
"""

GOLDEN_Q1_OF_3 = """\
(set-logic QF_BV)
(declare-const b1 Bool)
(declare-const b2 Bool)
(declare-const b3 Bool)
(define-fun s0 () (_ BitVec 3) (ite b1 (concat #b1 (_ bv0 2)) (_ bv0 3)))
(define-fun s1 () (_ BitVec 3) (bvadd s0 (ite b2 (concat (_ bv0 1) (concat #b1 (_ bv0 1))) (_ bv0 3))))
(define-fun s2 () (_ BitVec 3) (bvadd s1 (ite b3 (concat (_ bv0 2) #b1) (_ bv0 3))))
(define-fun actual () (_ BitVec 3) s2)
(define-fun target () (_ BitVec 3) (concat (concat (ite b1 #b1 #b0) (ite b2 #b1 #b0)) (ite b3 #b1 #b0)))
(assert (not (= actual target)))
(check-sat)
(get-model)
"""


class TestEmission:
    def test_golden_last_qubit(self):
        assert emit_smt2(generate_qft(3), 3) == GOLDEN_Q3_OF_3

    def test_golden_first_qubit(self):
        assert emit_smt2(generate_qft(3), 1) == GOLDEN_Q1_OF_3

    def test_byte_stable(self):
        c = generate_qft(5)
        assert emit_smt2(c, 2) == emit_smt2(c, 2)

    def test_minimal_single_qubit(self):
        text = emit_smt2(generate_qft(1), 1)
        assert "(declare-const b1 Bool)" in text
        assert "(_ BitVec 1)" in text
        assert "(ite b1 #b1 (_ bv0 1))" in text

    def test_q1_at_1024_is_small_and_strict(self):
        # O(log m) text per gate: with m-character literals q1 was 2.22 MB
        text = emit_smt2(generate_qft(1024), 1)
        assert len(text.encode()) < 200_000
        assert strict_form_problems(text) == []

    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_obligation_is_strict(self, m):
        c = generate_qft(m)
        for i in range(1, m + 1):
            assert strict_form_problems(emit_smt2(c, i)) == [], f"q{i} of {m}"

    def test_type_incorrect_circuit_rejected(self):
        with pytest.raises(CircuitTypeError):
            emit_smt2(inject_error(generate_qft(3), MissingH(2)), 1)

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            emit_smt2(generate_qft(2), 3)

    def test_write_obligations_naming(self, tmp_path):
        paths = write_obligations(generate_qft(3), tmp_path)
        assert [p.name for p in paths] == ["q1.smt2", "q2.smt2", "q3.smt2"]
        assert paths[0].read_text() == GOLDEN_Q1_OF_3


def strict_form_problems(text: str) -> list[str]:
    """Where an obligation leaves strict SMT-LIB form: a concat without
    exactly two arguments, a #b literal wider than one bit, or a zero-width
    indexed constant.  Read from the minisolver's tokens with a stack, since
    a target term nests m deep."""
    problems, stack = [], []
    for tok in minisolver.tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            form = stack.pop()
            if form[:1] == ["concat"] and len(form) != 3:
                problems.append(f"concat with {len(form) - 1} arguments")
            if form[:1] == ["_"] and form[1].startswith("bv") and form[2] == "0":
                problems.append(f"zero-width (_ {form[1]} 0)")
            if stack:
                stack[-1].append("(...)")
        else:
            if tok.startswith("#b") and len(tok) != 3:
                problems.append(f"{len(tok) - 2}-bit literal")
            stack[-1].append(tok)
    return problems


class TestParseModel:
    def test_fragment(self):
        assignment = parse_model("(define-fun b2 () Bool true)", 3)
        assert assignment.values == {1: 0, 2: 1, 3: 0}
        assert set(assignment.defaulted) == {1, 3}

    def test_multiline_z3_style(self):
        text = "sat\n(\n  (define-fun b1 () Bool\n    false)\n  (define-fun b2 () Bool\n    true)\n)\n"
        assignment = parse_model(text, 2)
        assert assignment.values == {1: 0, 2: 1}
        assert assignment.defaulted == ()

    def test_garbage_rejected(self):
        with pytest.raises(ModelParseError):
            parse_model("segmentation fault", 2)


def fake_solver(tmp_path, body: str) -> Path:
    path = tmp_path / "fake-solver"
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


class TestInvokeSolver:
    def _obligation(self, tmp_path) -> Path:
        path = tmp_path / "q1.smt2"
        path.write_text(emit_smt2(generate_qft(2), 1))
        return path

    def test_unsat_classification(self, tmp_path):
        fake = fake_solver(tmp_path, "echo unsat\n")
        result = invoke_solver(SolverConfig(command=str(fake)), self._obligation(tmp_path))
        assert result.status == "unsat"
        assert result.wall_s >= 0

    def test_sat_with_model(self, tmp_path):
        fake = fake_solver(tmp_path, 'echo sat\necho "(define-fun b1 () Bool true)"\n')
        result = invoke_solver(SolverConfig(command=str(fake)), self._obligation(tmp_path))
        assert result.status == "sat"
        assert result.model.values == {1: 1, 2: 0}
        assert result.model.defaulted == (2,)

    def test_sat_without_model_is_failure(self, tmp_path):
        fake = fake_solver(tmp_path, "echo sat\n")
        result = invoke_solver(SolverConfig(command=str(fake)), self._obligation(tmp_path))
        assert result.status == "failure"

    def test_garbage_output_is_failure(self, tmp_path):
        fake = fake_solver(tmp_path, "echo lizard\nexit 3\n")
        result = invoke_solver(SolverConfig(command=str(fake)), self._obligation(tmp_path))
        assert result.status == "failure"
        assert "exit 3" in result.reason

    def test_unknown_classification(self, tmp_path):
        fake = fake_solver(tmp_path, "echo unknown\n")
        result = invoke_solver(SolverConfig(command=str(fake)), self._obligation(tmp_path))
        assert result.status == "unknown"
        assert result.reason == "solver returned unknown"

    def test_missing_binary_is_failure(self, tmp_path):
        result = invoke_solver(SolverConfig(command=str(tmp_path / "nope")), self._obligation(tmp_path))
        assert result.status == "failure"
        assert "cannot launch" in result.reason

    def test_timeout_is_unknown(self, tmp_path):
        fake = fake_solver(tmp_path, "sleep 5\necho unsat\n")
        result = invoke_solver(SolverConfig(command=str(fake), timeout_s=0.2),
                               self._obligation(tmp_path))
        assert result.status == "unknown"
        assert result.reason == "timeout"

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf"), 1e300, 9e9])
    def test_timeout_out_of_range_is_rejected(self, timeout):
        # 9e9 s is below threading.TIMEOUT_MAX, but subprocess waits for the
        # solver's output through epoll, in milliseconds held in a C int
        with pytest.raises(ValueError, match="timeout_s must be a positive number of seconds"):
            SolverConfig(timeout_s=timeout)

    def test_longest_timeout_is_honoured(self, tmp_path):
        fake = fake_solver(tmp_path, "echo unsat\n")
        result = invoke_solver(SolverConfig(command=str(fake), timeout_s=MAX_TIMEOUT_S),
                               self._obligation(tmp_path))
        assert result.status == "unsat"


class TestMinisolverEndToEnd:
    def test_correct_circuit_obligations_unsat(self, tmp_path):
        paths = write_obligations(generate_qft(3), tmp_path)
        for path in paths:
            assert invoke_solver(minisolver_config(), path).status == "unsat"

    def test_wide_obligation_is_unknown_not_a_crash(self, tmp_path):
        # the target nests one concat per bit, past the recursion limit; the
        # solver reads it and gives up at its Boolean cap
        path = tmp_path / "q1.smt2"
        path.write_text(emit_smt2(generate_qft(1100), 1))
        result = invoke_solver(minisolver_config(), path)
        assert result.status == "unknown"
        assert result.reason == "solver returned unknown"

    def test_mutant_obligation_sat_with_valid_model(self, tmp_path):
        mutated = inject_error(generate_qft(3), IncorrectControl(target=1, ordinal=2, wrong_control=2))
        path = tmp_path / "q1.smt2"
        path.write_text(emit_smt2(mutated, 1))
        result = invoke_solver(minisolver_config(), path)
        assert result.status == "sat"
        sigma = result.model.values
        outs = run_abstract(mutated)
        assert eval_bits(outs.qubit(1), sigma) != eval_bits(target_vector(1, 3), sigma)

    def test_smt_backend_report(self):
        mutated = inject_error(generate_qft(4), IncorrectGateOrder(target=1, ordinal=1, wrong_n=3))
        report = verify_circuit(mutated, CheckerConfig(solver=minisolver_config()))
        assert report.overall == VIOLATION
        record = report.records[-1]
        assert record.backend == "smt"
        verdict = record.verdict
        assert verdict.actual != verdict.expected
        outs = run_abstract(mutated)
        assert eval_bits(outs.qubit(1), verdict.counterexample) == verdict.actual

    def test_backend_agreement_on_mutation_sweep(self):
        # every single-error mutant of the 4-qubit circuit, both backends
        base = generate_qft(4)
        circuits = [base] + [inject_error(base, s) for s in enumerate_error_specs(base)]
        solver_cfg = CheckerConfig(solver=minisolver_config())
        for c in circuits:
            weights_report = verify_circuit(c)
            smt_report = verify_circuit(c, solver_cfg)
            assert weights_report.overall == smt_report.overall
            weights_status = {r.verdict.qubit: r.verdict.status for r in weights_report.records}
            smt_status = {r.verdict.qubit: r.verdict.status for r in smt_report.records}
            assert weights_status == smt_status

    def test_smt_model_revalidated_by_coefficients(self):
        # five R(6) gates on distinct controls share one position, so the
        # model's phase needs carries; the reported bits must equal integer
        # execution of the line on the model's inputs
        m = 6
        gates = [GateInstance("H", 1)]
        gates += [GateInstance("R", 1, n=m, control=k) for k in range(2, m + 1)]
        gates += [GateInstance("H", k) for k in range(2, m + 1)]
        c = CircuitDescription(m, tuple(gates))
        cfg = CheckerConfig(solver=minisolver_config())
        record = verify_circuit(c, cfg).records[0]
        assert record.backend == "smt"
        verdict = record.verdict
        assert verdict.status == VIOLATION
        sigma = tuple(verdict.counterexample[k] for k in range(1, m + 1))
        assert bits_as_int(verdict.actual) == concrete_line_values(c, sigma)[0]
        assert verdict.actual != verdict.expected

    def test_omitted_model_entries_are_flagged(self, tmp_path):
        # b2 alone separates line 1 of this mutant; b1, b3 and b4 default to false
        fake = fake_solver(tmp_path, 'echo sat\necho "(define-fun b2 () Bool true)"\n')
        mutated = inject_error(generate_qft(4), IncorrectGateOrder(target=1, ordinal=1, wrong_n=3))
        report = verify_circuit(mutated, CheckerConfig(solver=SolverConfig(command=str(fake))))
        verdict = report.records[0].verdict
        assert verdict.status == VIOLATION
        assert verdict.counterexample == {1: 0, 2: 1, 3: 0, 4: 0}
        assert verdict.detail == "model omitted b1, b3, b4; defaulted to false"

    def test_model_that_does_not_separate_is_unresolved(self, tmp_path):
        # a correct line cannot be refuted, whatever model the solver claims
        fake = fake_solver(tmp_path, 'echo sat\necho "(define-fun b1 () Bool true)"\n')
        report = verify_circuit(generate_qft(3), CheckerConfig(solver=SolverConfig(command=str(fake))))
        assert report.overall == UNRESOLVED
        assert "failed local re-validation" in report.records[0].verdict.detail

    def test_solver_timeout_gives_unresolved_verdict(self, tmp_path):
        slow = tmp_path / "slow-solver"
        slow.write_text("#!/bin/sh\nsleep 5\necho unsat\n")
        slow.chmod(slow.stat().st_mode | stat.S_IXUSR)
        cfg = CheckerConfig(solver=SolverConfig(command=str(slow), timeout_s=0.2))
        report = verify_circuit(generate_qft(2), cfg)
        assert report.overall == UNRESOLVED
        assert "timeout" in report.records[0].verdict.detail


class TestMinisolverDifferential:
    """Every single-error mutant through the SMT text, decided in-process by
    the minisolver, against the default backend."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_sat_exactly_on_violations_with_separating_models(self, m):
        base = generate_qft(m)
        obligations = sats = 0
        for c in [base] + [inject_error(base, s) for s in enumerate_error_specs(base)]:
            report = verify_circuit(c, CheckerConfig(exhaustive=True))
            if report.overall == TYPE_ERROR:
                with pytest.raises(CircuitTypeError):
                    emit_smt2(c, 1)
                continue
            for rec, line in zip(report.records, group_gates_by_line(c), strict=True):
                if line is None:
                    continue
                i = rec.verdict.qubit
                answer = minisolver.solve(emit_smt2(c, i))
                obligations += 1
                assert answer.split()[0] == ("sat" if rec.verdict.status == VIOLATION
                                             else "unsat"), (c, i)
                if answer.startswith("sat"):
                    sats += 1
                    sigma = parse_model(answer, m).values
                    bits = tuple(sigma[k] for k in range(1, m + 1))
                    expected = bits_as_int(bits[i - 1:]) << (i - 1)
                    assert concrete_line_values(c, bits)[i - 1] != expected, (c, i, sigma)
        assert sats > 0 and obligations > sats


@pytest.mark.parametrize("module,unloaded", [
    # the checker drives the solver layer, never the other way round
    ("smt", "checker"),
    # the polynomial interpreter imports the product, never the other way round
    ("abstraction", "boolexpr"),
    ("checker", "boolexpr"),
    ("bench", "boolexpr"),
    ("oracle", "boolexpr"),
    ("cli", "boolexpr"),
], ids=lambda name: name)
def test_import_direction(module, unloaded):
    # load the module without the package's __init__, which imports everything
    import qftverify

    code = (
        "import importlib, json, sys, types\n"
        "pkg = types.ModuleType('qftverify')\n"
        f"pkg.__path__ = {list(qftverify.__path__)!r}\n"
        "sys.modules['qftverify'] = pkg\n"
        f"importlib.import_module('qftverify.{module}')\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('qftverify.'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert f"qftverify.{module}" in loaded
    assert f"qftverify.{unloaded}" not in loaded
