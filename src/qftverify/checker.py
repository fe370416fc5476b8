"""Per-qubit correctness checking and the verification driver.

A circuit is functionally correct when, for every qubit i, its final
fractional bit-vector equals the target form whose bit p is the input
variable b(i+p-1) for p <= m-i+1 and constant 0 beyond.  Each qubit is
decided independently.  The line's phase is sum_k b_k * c_k mod 1 (see
abstraction), each weight an integer numerator over 2**m, so the phase is
linear over Z/2**m and equals the target on every input exactly when each
weight c_k equals its target 2**-(k-i+1) for k >= i and 0 for k < i.  A
control tapped once is compared by its order alone; only the others are
summed.  The input b = e_k, with only b_k set, separates any k that
differs, so every refutation carries a counterexample by construction.  A
line whose arrays equal the textbook one's is verified by one comparison of
their bytes before any of this.  verify_circuit decides a circuit held
whole; verify_stream decides a circuit file as it is read, holding O(m)
state plus the lines that deviate from the textbook, and both end in
verify_lines.  A counterexample is held as the set of inputs it sets to 1,
and both routes read the target's and the line's phase off that set with
one function, _witness.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Sequence

from . import smt
from .abstraction import (CircuitTypeError, Line, _Grouping, _line_taps, _weight, bits_to_string,
                          group_gates_by_line)
from .circuit import CircuitDescription, _byte_stream, _read, qft_line

__all__ = [
    "CheckerConfig",
    "QubitVerdict",
    "QubitRecord",
    "VerificationReport",
    "verify_lines",
    "verify_circuit",
    "verify_stream",
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

    For a violation, the counterexample maps the inputs it sets to 1, and
    only those, to 1; every other input is 0.  ``expected`` and ``actual`` are the m bits of
    the target's and the line's phase on that input, and they differ, so
    every reported counterexample certifies itself.  ``actual`` is None only
    when the line never received an H gate: the wire then carries
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


def _witness(i: int, m: int, taps: dict[int, list[int]] | None, true_inputs: Sequence[int],
             detail: str) -> QubitVerdict | None:
    """The violation that the input setting exactly ``true_inputs`` to 1
    exhibits on qubit i, whose line taps ``taps`` (None for a control wire),
    or None if it exhibits none.  Both phases are read off that set: the
    target weighs b_k at 2**-(k-i+1) for k >= i, the line at its taps."""
    expected = _phase_bits(_weight(m, (k - i + 1 for k in true_inputs if k >= i)), m)
    actual = None if taps is None else _phase_bits(
        _weight(m, (n for k in true_inputs for n in taps.get(k, ()))), m)
    if actual == expected:
        return None
    return QubitVerdict(qubit=i, status=VIOLATION, counterexample=dict.fromkeys(true_inputs, 1),
                        expected=expected, actual=actual, detail=detail)


def _unrotated(i: int, m: int) -> QubitVerdict:
    """The violation of qubit i whose line never receives an H."""
    return _witness(i, m, None, (i,),
                    "line never receives an H gate; its output stays an unrotated control wire")


def _phase_bits(phase: int, m: int) -> tuple[int, ...]:
    """The m fractional bits of the phase ``phase / 2**m``, bit 1 most significant."""
    bits = [0] * m
    while phase:  # one step per set bit, lowest first
        low = phase & -phase
        bits[m - low.bit_length()] = 1
        phase ^= low
    return tuple(bits)


def _decide_line(m: int, i: int, orders: Sequence[int], controls: Sequence[int]) -> QubitVerdict:
    """Decide line i by its per-control weights (see the module docstring)."""
    taps = _line_taps(m, i, orders, controls)
    # a tapped k differs unless its weight is 2**-(k-i+1), or zero for k < i;
    # one tap matches only as R(k-i+1), so only the others are summed
    k = min((k for k, ns in taps.items() if ns != [k - i + 1] and (
                len(ns) == 1 or _weight(m, ns) != (1 << m - (k - i + 1) if k >= i else 0))),
            default=m + 1)
    # an untapped k weighs zero; this scan stops at the first one, so it is
    # no longer than the line
    k = next((j for j in range(i, k) if j not in taps), k)
    if k > m:
        return QubitVerdict(qubit=i, status=VERIFIED)
    target = f"2^-{k - i + 1}" if k >= i else "0"
    verdict = _witness(i, m, taps, (k,), f"coefficient of b{k} differs from {target}")
    if verdict is None:
        raise AssertionError(f"qubit {i}: input b{k} failed to separate actual from expected")
    return verdict


def _solver_verdict(solver: smt.SolverConfig, i: int, m: int, line: Line) -> QubitVerdict:
    """Decide one qubit, whose line has an H, with the external solver.

    A sat model is re-validated before a violation is reported: _witness
    evaluates the line's phase, sum_k b_k * c_k mod 1 over its taps, on the
    model's true inputs, so a nonconforming solver cannot fabricate a
    counterexample.
    """
    result = smt.solve_line(solver, line, i, m)
    if result.status == "unsat":
        return QubitVerdict(qubit=i, status=VERIFIED)
    if result.status != "sat":
        return QubitVerdict(qubit=i, status=UNRESOLVED,
                            detail=f"solver {result.status}: {result.reason}")
    detail = ""
    if result.model.defaulted:
        names = ", ".join(f"b{k}" for k in result.model.defaulted)
        detail = f"model omitted {names}; defaulted to false"
    true_inputs = [k for k, bit in result.model.values.items() if bit]
    verdict = _witness(i, m, _line_taps(m, i, *line), true_inputs, detail)
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
    None for a line without an H.  A line need not be slices of a circuit's
    columns: verify_stream gives a textbook line as slices of qft_line's
    columns and only a deviating line as arrays of its own.  Any sequences
    of ints serve as columns; columns that are not arrays, lists for
    example, skip the textbook comparison and are decided by their weights,
    to the same verdict.  ``lines`` is consumed lazily, one line at a time,
    so a streamed circuit never needs to exist whole.  A malformed line
    (columns of unequal length, or an order or control outside 1..m) raises
    ValueError, and so do an m below 1, before any line is pulled, a line
    pulled after line m, and lines that end before line m unless a failed
    qubit stopped the run first.
    Per-qubit work (summing that line's taps and checking its weights) is
    timed separately so reported times reflect the independent per-qubit
    obligations rather than the whole-circuit sweep.  In short-circuit mode
    no line is pulled after the first non-verified qubit.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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
        return _type_error_report(c.m, c.gate_count, exc)
    return verify_lines(c.m, c.gate_count, lines, cfg)


def verify_stream(source: str | bytes | BinaryIO, cfg: CheckerConfig | None = None) -> VerificationReport:
    """The report of verify_circuit(parse_circuit(source), cfg), without
    holding the circuit.

    A file in the canonical layout is grouped a block at a time as it is
    decoded (abstraction._Grouping), so the read holds O(m) state plus the
    rotations of the lines that deviate from the textbook.  A type error
    stops the grouping but not the reading, so a parse error later in the
    file still outranks it, and the report counts the whole file's gates.
    Any other file is parsed whole and goes through verify_circuit.
    """
    cfg = cfg or CheckerConfig()
    source = _byte_stream(source)  # frees the text if the caller let it go
    return _read(source, lambda m, blocks: _verify_blocks(m, blocks, cfg), lambda c: verify_circuit(c, cfg))


def _verify_blocks(m: int, blocks: Iterable[tuple[Sequence[int], Sequence[int], Sequence[int]]],
                   cfg: CheckerConfig) -> VerificationReport:
    """Type, group and decide the circuit whose columns ``blocks`` yields a block at a time."""
    grouping = _Grouping(m)
    gate_count = 0
    error = None
    for targets, orders, controls in blocks:
        if error is None:
            try:
                grouping.feed(targets, orders, controls, gate_count)
            except CircuitTypeError as exc:
                error = exc
            else:
                grouping.compact()
        gate_count += len(targets)
    if error is not None:
        return _type_error_report(m, gate_count, error)
    return verify_lines(m, gate_count, grouping.iter_lines(), cfg)


def _type_error_report(m: int, gate_count: int, exc: CircuitTypeError) -> VerificationReport:
    return VerificationReport(
        qubits=m, gate_count=gate_count, overall=TYPE_ERROR,
        type_error_kind=exc.kind.value, type_error_line=exc.line,
        type_error_gate=exc.gate_ordinal, type_error_message=str(exc),
    )
