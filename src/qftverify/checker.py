"""Per-qubit correctness checking and the verification driver.

A circuit is functionally correct when, for every qubit i, its final
fractional bit-vector equals the target form whose bit p is the input
variable b(i+p-1) for p <= m-i+1 and constant 0 beyond.  Each qubit is
decided independently: bits are compared in canonical algebraic normal form,
and any nonzero difference polynomial yields a concrete counterexample
assignment by construction.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import smt
from .boolexpr import DEFAULT_TERM_BUDGET, FALSE, TRUE, AnfBudgetError, evaluate, sorted_monomials, var
from .abstraction import (
    AbstractOutputs,
    CircuitTypeError,
    SymbolicBitVector,
    _interpret_line,
    bits_to_string,
    group_gates_by_line,
)
from .circuit import CircuitDescription, GateInstance

__all__ = [
    "CheckerConfig",
    "QubitVerdict",
    "QubitRecord",
    "VerificationReport",
    "target_vector",
    "check_qubit",
    "find_counterexample",
    "verify_lines",
    "verify_circuit",
    "SolverUnavailableError",
]

VERIFIED = "verified"
VIOLATION = "violation"
TYPE_ERROR = "type_error"
UNRESOLVED = "unresolved"


class SolverUnavailableError(Exception):
    """Normalization overflowed and no external solver is configured."""


@dataclass(frozen=True)
class CheckerConfig:
    """Knobs for verify_circuit.

    backend: "anf" decides structurally, "smt" defers every qubit to an
    external solver, "auto" uses ANF and falls back to the solver only when
    the term budget overflows.  Short-circuit (exhaustive=False) stops at the
    first non-verified qubit, which is the error-hunting default; exhaustive
    mode checks all qubits for certification.
    """

    backend: str = "anf"
    exhaustive: bool = False
    anf_budget: int = DEFAULT_TERM_BUDGET
    solver: smt.SolverConfig | None = None

    def __post_init__(self):
        if self.backend not in ("anf", "smt", "auto"):
            raise ValueError(f"unknown backend {self.backend!r}; expected 'anf', 'smt' or 'auto'")


@dataclass(frozen=True)
class QubitVerdict:
    """Outcome for one qubit.

    For a violation, the counterexample is a total assignment of the input
    variables under which the evaluated output differs from the evaluated
    target, so every reported counterexample certifies itself.  ``actual`` is
    None only when the line never received an H gate: the wire then carries
    an unrotated control value, which cannot equal the target form (a rotated
    superposition) for any input.
    """

    qubit: int
    status: str
    counterexample: dict[int, int] | None = None
    expected: tuple[int, ...] | None = None
    actual: tuple[int, ...] | None = None
    detail: str = ""


@dataclass(frozen=True)
class QubitRecord:
    verdict: QubitVerdict
    backend: str
    millis: float


@dataclass
class VerificationReport:
    """Result of verify_circuit: overall verdict plus per-qubit records."""

    qubits: int
    gate_count: int
    overall: str
    records: list[QubitRecord] = field(default_factory=list)
    type_error_kind: str | None = None
    type_error_line: int | None = None
    type_error_gate: int | None = None
    type_error_message: str | None = None

    def record_for(self, qubit: int) -> QubitRecord | None:
        for rec in self.records:
            if rec.verdict.qubit == qubit:
                return rec
        return None

    def to_dict(self) -> dict:
        doc: dict = {
            "qubits": self.qubits,
            "gates": self.gate_count,
            "overall": self.overall,
        }
        if self.type_error_kind is not None:
            doc["type_error"] = {
                "kind": self.type_error_kind,
                "line": self.type_error_line,
                "gate": self.type_error_gate,
                "message": self.type_error_message,
            }
        entries = []
        for rec in self.records:
            v = rec.verdict
            entry: dict = {
                "qubit": v.qubit,
                "verdict": v.status,
                "backend": rec.backend,
                "millis": round(rec.millis, 3),
            }
            if v.counterexample is not None:
                entry["counterexample"] = {f"b{k}": val for k, val in sorted(v.counterexample.items())}
                entry["expected"] = bits_to_string(v.expected) if v.expected is not None else None
                entry["actual"] = bits_to_string(v.actual) if v.actual is not None else None
            if v.detail:
                entry["detail"] = v.detail
            entries.append(entry)
        doc["per_qubit"] = entries
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def target_vector(i: int, m: int) -> SymbolicBitVector:
    """The required output form for qubit i: bits b(i), b(i+1), .., b(m), 0, .., 0."""
    if not 1 <= i <= m:
        raise IndexError(f"qubit {i} out of range 1..{m}")
    bits = [var(i + p) for p in range(m - i + 1)]
    bits.extend([FALSE] * (i - 1))
    return SymbolicBitVector(m, tuple(bits))


def _expected_bits(assignment: dict[int, int], i: int, m: int) -> tuple[int, ...]:
    """Qubit i's target form under a total assignment: b(i)..b(m), then i-1 zeros."""
    return (*map(assignment.__getitem__, range(i, m + 1)), *(0,) * (i - 1))


@functools.lru_cache(maxsize=1)
def _all_false(m: int) -> dict[int, int]:
    # never mutated: callers copy it, which is several times cheaper than
    # building an m-entry dict key by key on every refuted qubit
    return dict.fromkeys(range(1, m + 1), 0)


def _assignment(true_vars: Iterable[int], m: int) -> dict[int, int]:
    """The total assignment of b1..bm that sets exactly ``true_vars``."""
    assignment = _all_false(m).copy()
    for v in true_vars:
        assignment[v] = 1
    return assignment


def find_counterexample(diff: frozenset[int], m: int) -> dict[int, int]:
    """A total assignment under which a nonzero difference polynomial is 1.

    If the constant monomial is present, all-false works: every other
    monomial vanishes.  Otherwise any monomial of minimum degree is
    inclusion-minimal (no proper subset can be a monomial of the polynomial),
    so setting exactly its variables true makes it the only monomial that
    evaluates to 1.  Deterministic: smallest monomial in (degree, index)
    order is chosen.
    """
    if not diff:
        raise ValueError("cannot extract a counterexample from the zero polynomial")
    return _assignment(sorted_monomials(diff)[0], m)


def _witness(i: int, m: int, assignment: dict[int, int], actual: tuple[int, ...] | None,
             detail: str) -> QubitVerdict | None:
    """The violation that ``assignment`` exhibits on qubit i, whose line gives
    ``actual`` there (None for a control wire), or None if it exhibits none."""
    expected = _expected_bits(assignment, i, m)
    if actual == expected:
        return None
    return QubitVerdict(qubit=i, status=VIOLATION, counterexample=assignment,
                        expected=expected, actual=actual, detail=detail)


def _check_line_bits(bits: Sequence[frozenset[int]] | None, i: int, m: int) -> QubitVerdict:
    """Decide one qubit from its final bit list (None = line stayed Control)."""
    if bits is None:
        return _witness(i, m, _assignment((i,), m), None,
                        "line never receives an H gate; its output stays an unrotated control wire")
    for p, actual_bit in enumerate(bits, start=1):
        want_index = i + p - 1
        target_bit = var(want_index) if want_index <= m else FALSE
        # var(k) and FALSE are single objects, so correct bits match by identity
        if actual_bit is not target_bit and actual_bit != target_bit:
            break
    else:
        return QubitVerdict(qubit=i, status=VERIFIED)
    true_vars = sorted_monomials(actual_bit ^ target_bit)[0]
    mask = sum(1 << v for v in true_vars)
    actual = tuple([evaluate(b, mask) if b else 0 for b in bits])
    verdict = _witness(i, m, _assignment(true_vars, m), actual, f"first difference at bit {p}")
    if verdict is None:
        raise AssertionError(
            f"qubit {i}: counterexample failed to separate actual from expected at bit {p}"
        )
    return verdict


def _solver_verdict(solver: smt.SolverConfig, i: int, m: int,
                    gates: Sequence[GateInstance]) -> QubitVerdict:
    """Decide one qubit with the external solver.

    A sat model is re-validated by running the line on the model's input
    values before a violation is reported, so a nonconforming solver cannot
    fabricate a counterexample.
    """
    if not gates:
        return _check_line_bits(None, i, m)
    result = smt.solve_line(solver, gates, i, m)
    if result.status == "unsat":
        return QubitVerdict(qubit=i, status=VERIFIED)
    if result.status != "sat":
        return QubitVerdict(qubit=i, status=UNRESOLVED,
                            detail=f"solver {result.status}: {result.reason}")
    assignment = dict(result.model.values)
    values = _interpret_line(m, gates, leaf=lambda k: TRUE if assignment[k] else FALSE)
    detail = ""
    if result.model.defaulted:
        names = ", ".join(f"b{k}" for k in result.model.defaulted)
        detail = f"model omitted {names}; defaulted to false"
    verdict = _witness(i, m, assignment, tuple(1 if b else 0 for b in values), detail)
    if verdict is None:
        return QubitVerdict(qubit=i, status=UNRESOLVED,
                            detail="solver model failed local re-validation; treating as unresolved")
    return verdict


def check_qubit(outputs: AbstractOutputs, i: int) -> QubitVerdict:
    """Decide one qubit of precomputed abstract outputs."""
    vec = outputs.qubit(i)
    return _check_line_bits(None if vec is None else vec.bits, i, outputs.width)


def _verify_one_qubit(gates: Sequence[GateInstance], i: int, m: int,
                      cfg: CheckerConfig) -> QubitRecord:
    start = time.perf_counter()
    backend = "anf"
    if cfg.backend == "smt":
        verdict = _solver_verdict(cfg.solver, i, m, gates)
        backend = "smt"
    else:
        try:
            verdict = _check_line_bits(_interpret_line(m, gates, cfg.anf_budget), i, m)
        except AnfBudgetError as exc:
            if cfg.backend == "auto" and cfg.solver is not None:
                verdict = _solver_verdict(cfg.solver, i, m, gates)
                backend = "smt"
            else:
                verdict = QubitVerdict(
                    qubit=i, status=UNRESOLVED,
                    detail=f"{exc}; configure an external solver to decide this qubit",
                )
    millis = (time.perf_counter() - start) * 1000.0
    return QubitRecord(verdict=verdict, backend=backend, millis=millis)


def verify_lines(m: int, gate_count: int, lines: Iterable[Sequence[GateInstance]],
                 cfg: CheckerConfig) -> VerificationReport:
    """Decide every qubit of a circuit given as well-typed per-line gate lists.

    ``lines`` yields line 1, 2, .. in order and is consumed lazily, one line
    at a time, so a streamed circuit never needs to exist whole.  Per-qubit
    work (interpreting that line's gates and checking its output) is timed
    separately so reported times reflect the independent per-qubit
    obligations rather than the whole-circuit sweep.  In short-circuit mode
    no line is pulled after the first non-verified qubit.  The solver, when
    the backend asks for one, is ``cfg.solver``.
    """
    if cfg.backend == "smt" and cfg.solver is None:
        raise SolverUnavailableError("smt backend requested but no solver is configured")
    report = VerificationReport(qubits=m, gate_count=gate_count, overall=VERIFIED)
    for i, gates in enumerate(lines, start=1):
        rec = _verify_one_qubit(gates, i, m, cfg)
        report.records.append(rec)
        if rec.verdict.status != VERIFIED and not cfg.exhaustive:
            break

    statuses = [r.verdict.status for r in report.records]
    if VIOLATION in statuses:
        report.overall = VIOLATION
    elif UNRESOLVED in statuses:
        report.overall = UNRESOLVED
    return report


def verify_circuit(c: CircuitDescription, cfg: CheckerConfig | None = None) -> VerificationReport:
    """Typecheck, interpret, and decide every qubit of a circuit.

    The whole circuit is typed before any qubit is decided, so a type error
    outranks every violation.  Qubits are reported in ascending index order.
    """
    cfg = cfg or CheckerConfig()
    try:
        lines = group_gates_by_line(c)
    except CircuitTypeError as exc:
        return VerificationReport(
            qubits=c.m, gate_count=c.gate_count, overall=TYPE_ERROR,
            type_error_kind=exc.kind.value, type_error_line=exc.line,
            type_error_gate=exc.gate_ordinal, type_error_message=str(exc),
        )
    return verify_lines(c.m, c.gate_count, lines, cfg)
