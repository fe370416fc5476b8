"""Per-qubit correctness checking and the verification driver.

A circuit is functionally correct when, for every qubit i, its final
fractional bit-vector equals the target form whose bit p is the input
variable b(i+p-1) for p <= m-i+1 and constant 0 beyond.  Each qubit is
decided independently: bits are compared in canonical algebraic normal form,
and any nonzero difference polynomial yields a concrete counterexample
assignment by construction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .boolexpr import (
    DEFAULT_TERM_BUDGET,
    AnfBudgetError,
    BoolExpr,
    FALSE,
    anf_normalize,
    sorted_monomials,
    var,
)
from .abstraction import (
    AbstractOutputs,
    CircuitTypeError,
    SymbolicBitVector,
    _interpret_line,
    bits_to_string,
    eval_bits,
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
    solver: "object | None" = None  # smt.SolverConfig; untyped to avoid an import cycle

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
    assignment = dict.fromkeys(range(1, m + 1), 0)
    for v in sorted_monomials(diff)[0]:
        assignment[v] = 1
    return assignment


def _check_line_bits(bits: Sequence[BoolExpr] | None, i: int, m: int,
                     budget: int) -> QubitVerdict:
    """Decide one qubit from its final bit list (None = line stayed Control)."""
    if bits is None:
        assignment = {k: 0 for k in range(1, m + 1)}
        assignment[i] = 1
        return QubitVerdict(
            qubit=i,
            status=VIOLATION,
            counterexample=assignment,
            expected=_expected_bits(assignment, i, m),
            actual=None,
            detail="line never receives an H gate; its output stays an unrotated control wire",
        )
    first_diff: frozenset[int] | None = None
    first_p = 0
    for p in range(1, m + 1):
        actual_bit = bits[p - 1]
        want_index = i + p - 1
        target_bit = var(want_index) if want_index <= m else FALSE
        if actual_bit is target_bit:
            continue  # constants and variables are single objects
        actual_anf = anf_normalize(actual_bit, budget)
        target_anf = anf_normalize(target_bit, budget)
        if actual_anf != target_anf:
            first_diff = actual_anf ^ target_anf
            first_p = p
            break
    if first_diff is None:
        return QubitVerdict(qubit=i, status=VERIFIED)
    assignment = find_counterexample(first_diff, m)
    expected = _expected_bits(assignment, i, m)
    actual = eval_bits(SymbolicBitVector(m, tuple(bits)), assignment)
    if actual == expected:
        raise AssertionError(
            f"qubit {i}: counterexample failed to separate actual from expected at bit {first_p}"
        )
    return QubitVerdict(
        qubit=i,
        status=VIOLATION,
        counterexample=assignment,
        expected=expected,
        actual=actual,
        detail=f"first difference at bit {first_p}",
    )


def check_qubit(outputs: AbstractOutputs, i: int,
                budget: int = DEFAULT_TERM_BUDGET) -> QubitVerdict:
    """Decide one qubit of precomputed abstract outputs.

    Raises AnfBudgetError when normalization overflows; verify_circuit turns
    that into a solver fallback or an unresolved verdict.
    """
    vec = outputs.qubit(i)
    return _check_line_bits(None if vec is None else vec.bits, i, outputs.width, budget)


def _verify_one_qubit(gates: Sequence[GateInstance], i: int, m: int, cfg: CheckerConfig,
                      smt_check: "Callable | None") -> QubitRecord:
    start = time.perf_counter()
    backend = "anf"
    if cfg.backend == "smt":
        verdict = smt_check(i, gates)
        backend = "smt"
    else:
        try:
            bits = _interpret_line(m, gates)
            verdict = _check_line_bits(bits, i, m, cfg.anf_budget)
        except AnfBudgetError as exc:
            if cfg.backend == "auto" and smt_check is not None:
                verdict = smt_check(i, gates)
                backend = "smt"
            else:
                verdict = QubitVerdict(
                    qubit=i, status=UNRESOLVED,
                    detail=f"{exc}; configure an external solver to decide this qubit",
                )
    millis = (time.perf_counter() - start) * 1000.0
    return QubitRecord(verdict=verdict, backend=backend, millis=millis)


def verify_lines(m: int, gate_count: int, lines: Iterable[Sequence[GateInstance]],
                 cfg: CheckerConfig, smt_check: "Callable | None" = None) -> VerificationReport:
    """Decide every qubit of a circuit given as well-typed per-line gate lists.

    ``lines`` yields line 1, 2, .. in order and is consumed lazily, one line
    at a time, so a streamed circuit never needs to exist whole.  Per-qubit
    work (interpreting that line's gates and checking its output) is timed
    separately so reported times reflect the independent per-qubit
    obligations rather than the whole-circuit sweep.  In short-circuit mode
    no line is pulled after the first non-verified qubit.  ``smt_check(i,
    gates)`` decides one qubit with a solver (see smt.make_qubit_checker).
    """
    if cfg.backend == "smt" and smt_check is None:
        raise SolverUnavailableError("smt backend requested but no solver is configured")
    report = VerificationReport(qubits=m, gate_count=gate_count, overall=VERIFIED)
    for i, gates in enumerate(lines, start=1):
        rec = _verify_one_qubit(gates, i, m, cfg, smt_check)
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
    smt_check = None
    if cfg.backend in ("smt", "auto") and cfg.solver is not None:
        from . import smt

        smt_check = smt.make_qubit_checker(c.m, cfg.solver)
    return verify_lines(c.m, c.gate_count, lines, cfg, smt_check)
