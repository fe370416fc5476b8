"""Per-qubit correctness checking and the verification driver.

A circuit is functionally correct when, for every qubit i, its final
fractional bit-vector equals the target form whose bit p is the input
variable b(i+p-1) for p <= m-i+1 and constant 0 beyond.  Each qubit is
decided independently.  The line's phase is sum_k b_k * c_k mod 1 (see
abstraction), which is linear over Z/2**m, so it equals the target on every
input exactly when each weight c_k equals its target 2**-(k-i+1) for
k >= i and 0 for k < i.  The input b = e_k, with only b_k set, separates
any k that differs, so every refutation carries a counterexample by
construction.  A line equal to the textbook one is verified by one list
comparison before any of this.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import smt
from .abstraction import CircuitTypeError, Line, _fold, _line_weights, bits_to_string, group_gates_by_line
from .circuit import CircuitDescription, qft_line

__all__ = [
    "CheckerConfig",
    "QubitVerdict",
    "QubitRecord",
    "VerificationReport",
    "verify_lines",
    "verify_circuit",
]

VERIFIED = "verified"
VIOLATION = "violation"
TYPE_ERROR = "type_error"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class CheckerConfig:
    """Knobs for verify_circuit.

    A solver decides every qubit (records read "smt"); without one, each
    line is decided by its per-control weights (records read "weights").
    Short-circuit (exhaustive=False) stops at the first non-verified qubit,
    the error-hunting default; exhaustive mode checks all qubits.
    """

    exhaustive: bool = False
    solver: smt.SolverConfig | None = None


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


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


def _witness(i: int, m: int, assignment: dict[int, int], actual: tuple[int, ...] | None,
             detail: str) -> QubitVerdict | None:
    """The violation that ``assignment`` exhibits on qubit i, whose line gives
    ``actual`` there (None for a control wire), or None if it exhibits none."""
    expected = _expected_bits(assignment, i, m)
    if actual == expected:
        return None
    return QubitVerdict(qubit=i, status=VIOLATION, counterexample=assignment,
                        expected=expected, actual=actual, detail=detail)


def _unrotated(i: int, m: int) -> QubitVerdict:
    """The violation of qubit i whose line never receives an H."""
    return _witness(i, m, _assignment((i,), m), None,
                    "line never receives an H gate; its output stays an unrotated control wire")


def _phase_bits(set_orders: Iterable[int], m: int) -> tuple[int, ...]:
    """The m fractional bits of a phase given by the orders of its set bits."""
    bits = [0] * m
    for n in set_orders:
        bits[n - 1] = 1
    return tuple(bits)


def _decide_line(m: int, i: int, orders: Sequence[int], controls: Sequence[int]) -> QubitVerdict:
    """Decide line i by its per-control weights (see the module docstring)."""
    weights = _line_weights(m, i, orders, controls)
    # a tapped k differs unless its weight is one-hot at k-i+1, or zero for k < i
    k = min((k for k, bits in weights.items() if bits != [k - i + 1] and (bits or k >= i)),
            default=m + 1)
    # an untapped k weighs zero; this scan stops at the first one, so it is
    # no longer than the line
    k = next((j for j in range(i, k) if j not in weights), k)
    if k > m:
        return QubitVerdict(qubit=i, status=VERIFIED)
    target = f"2^-{k - i + 1}" if k >= i else "0"
    verdict = _witness(i, m, _assignment((k,), m), _phase_bits(weights.get(k, ()), m),
                       f"coefficient of b{k} differs from {target}")
    if verdict is None:
        raise AssertionError(f"qubit {i}: input b{k} failed to separate actual from expected")
    return verdict


def _solver_verdict(solver: smt.SolverConfig, i: int, m: int, line: Line) -> QubitVerdict:
    """Decide one qubit, whose line has an H, with the external solver.

    A sat model is re-validated by evaluating the line's phase on the
    model's input values, sum_k b_k * c_k mod 1, before a violation is
    reported, so a nonconforming solver cannot fabricate a counterexample.
    """
    result = smt.solve_line(solver, line, i, m)
    if result.status == "unsat":
        return QubitVerdict(qubit=i, status=VERIFIED)
    if result.status != "sat":
        return QubitVerdict(qubit=i, status=UNRESOLVED,
                            detail=f"solver {result.status}: {result.reason}")
    assignment = dict(result.model.values)
    orders, controls = line
    taps = [n for n, k in zip(orders, controls) if assignment[k]]
    if assignment[i]:
        taps.append(1)  # the H
    detail = ""
    if result.model.defaulted:
        names = ", ".join(f"b{k}" for k in result.model.defaulted)
        detail = f"model omitted {names}; defaulted to false"
    verdict = _witness(i, m, assignment, _phase_bits(_fold(taps), m), detail)
    if verdict is None:
        return QubitVerdict(qubit=i, status=UNRESOLVED,
                            detail="solver model failed local re-validation; treating as unresolved")
    return verdict


def _verify_one_qubit(line: Line, i: int, m: int, solver: smt.SolverConfig | None) -> QubitVerdict:
    if line is None:
        return _unrotated(i, m)
    if solver is not None:
        return _solver_verdict(solver, i, m, line)
    if len(line[0]) == m - i and line == qft_line(m, i):
        return QubitVerdict(qubit=i, status=VERIFIED)
    return _decide_line(m, i, *line)


def verify_lines(m: int, gate_count: int, lines: Iterable[Line],
                 cfg: CheckerConfig) -> VerificationReport:
    """Decide every qubit of a circuit given as well-typed lines.

    ``lines`` yields line 1, 2, .., m in order, each as group_gates_by_line
    gives it: ``(orders, controls)`` for its rotations in program order, or
    None for a line without an H.  It is consumed lazily, one line at a
    time, so a streamed circuit never needs to exist whole.  A malformed
    line (columns of unequal length, or an order or control outside 1..m)
    raises ValueError, and so does a line pulled after line m, or lines
    that end before line m unless a failed qubit stopped the run first.
    Per-qubit work (folding that line's gates and checking its weights) is
    timed separately so reported times reflect the independent per-qubit
    obligations rather than the whole-circuit sweep.  In short-circuit mode
    no line is pulled after the first non-verified qubit.
    """
    label = "weights" if cfg.solver is None else "smt"
    report = VerificationReport(qubits=m, gate_count=gate_count, overall=VERIFIED)
    i = 0
    for i, line in enumerate(lines, start=1):
        if i > m:
            raise ValueError(f"more than {m} lines for {m} qubits")
        start = time.perf_counter()
        verdict = _verify_one_qubit(line, i, m, cfg.solver)
        rec = QubitRecord(verdict=verdict, backend=label, millis=(time.perf_counter() - start) * 1000.0)
        report.records.append(rec)
        if rec.verdict.status != VERIFIED and not cfg.exhaustive:
            break
    else:
        if i < m:
            raise ValueError(f"{i} lines for {m} qubits")

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
