"""Typed rotation semantics: wire typing and the symbolic abstract interpreter.

On basis inputs every gate in these circuits acts as a rotation by a negative
power of two of a full turn, so a qubit's state abstracts to a width-m
*fractional bit-vector*: bit p (1-based, bit 1 most significant) has weight
2**-p, and the vector <.x1..xm> denotes the fraction of a full rotation
accumulated on the line.  Bits are symbolic Boolean expressions over the
circuit's input variables b1..bm.

Wire typing: a line starts as Control (its initial Boolean value) and becomes
Data (a fractional bit-vector) at its unique H gate.  An H gate consumes a
Control and produces the one-bit-set vector conditioned on its input; a
rotation of order n adds, modulo 1, a one-hot vector at position n ANDed with
its control's initial value.  Violations of this discipline are the type
errors that expose structural circuit defects.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .boolexpr import FALSE, BoolExpr, _evaluate_all, and_, var, xor
from .circuit import CircuitDescription, GateInstance

__all__ = [
    "TypeErrorKind",
    "CircuitTypeError",
    "SymbolicBitVector",
    "AbstractOutputs",
    "typecheck",
    "group_gates_by_line",
    "run_abstract",
    "eval_bits",
    "bits_to_string",
]


class TypeErrorKind(enum.Enum):
    """Wire-kind mismatches; values name the offended gate port."""

    H_ON_DATA_WIRE = "h-on-data-wire"
    RN_DATA_PORT_GOT_CONTROL = "rn-data-port-got-control"
    DUPLICATE_H = "duplicate-h"


class CircuitTypeError(Exception):
    """A wire-kind mismatch, located by gate ordinal (1-based) and qubit line."""

    def __init__(self, kind: TypeErrorKind, line: int, gate_ordinal: int, message: str):
        super().__init__(f"gate {gate_ordinal} (line {line}): {message}")
        self.kind = kind
        self.line = line
        self.gate_ordinal = gate_ordinal


@dataclass(frozen=True)
class SymbolicBitVector:
    """Width-m fractional bit-vector; ``bits[0]`` is bit 1, the 2**-1 bit."""

    width: int
    bits: tuple[BoolExpr, ...]

    def __post_init__(self):
        if len(self.bits) != self.width:
            raise ValueError(f"expected {self.width} bits, got {len(self.bits)}")

    def __str__(self) -> str:
        return "<." + " ".join(str(b) for b in self.bits) + ">"


def eval_bits(v: SymbolicBitVector, assignment: Mapping[int, int]) -> tuple[int, ...]:
    """Concrete bits of ``v`` under an input assignment, in one walk of its DAG."""
    return tuple(_evaluate_all(v.bits, assignment))


def bits_to_string(bits: Sequence[int]) -> str:
    """Render concrete bits in fractional notation, e.g. (1,0,1) -> "0.101"."""
    return "0." + "".join(str(b) for b in bits)


@dataclass(frozen=True)
class AbstractOutputs:
    """Final per-line symbolic bit-vectors of a type-correct circuit.

    A line that never receives an H stays Control and has no bit-vector; its
    entry is None and the property checker reports it as a violation (an
    unrotated wire cannot carry the required output form).
    """

    width: int
    per_qubit: tuple[SymbolicBitVector | None, ...]

    def qubit(self, i: int) -> SymbolicBitVector | None:
        """Output of qubit i (1-based)."""
        if not 1 <= i <= self.width:
            raise IndexError(f"qubit {i} out of range 1..{self.width}")
        return self.per_qubit[i - 1]


def group_gates_by_line(c: CircuitDescription) -> list[list[GateInstance]]:
    """The wire discipline, checked in one program-order walk that groups gates by line.

    A line takes at most one H, and no rotation before it.  The first gate
    that breaks this raises CircuitTypeError, located by program ordinal.
    Returns each line's gates in program order: index 0 holds line 1, and a
    line's list is empty exactly when it never receives an H.
    """
    lines: list[list[GateInstance]] = [[] for _ in range(c.m)]
    for ordinal, gate in enumerate(c.gates, start=1):
        line = gate.target
        gates = lines[line - 1]
        if gate.kind == "H":
            if len(gates) > 1:
                raise CircuitTypeError(
                    TypeErrorKind.H_ON_DATA_WIRE, line, ordinal,
                    f"H applied to line {line} after it became a data wire",
                )
            if gates:
                raise CircuitTypeError(
                    TypeErrorKind.DUPLICATE_H, line, ordinal,
                    f"second H gate on line {line}",
                )
        elif not gates:
            raise CircuitTypeError(
                TypeErrorKind.RN_DATA_PORT_GOT_CONTROL, line, ordinal,
                f"rotation targets line {line}, which has no preceding H "
                f"(control value on a data port)",
            )
        gates.append(gate)
    return lines


def typecheck(c: CircuitDescription) -> None:
    """Check the wire-typing discipline; raise CircuitTypeError on violation.

    Success means every line has at most one H and no rotation targets a line
    before its H.
    """
    group_gates_by_line(c)


def _interpret_line(m: int, gates: Sequence[GateInstance]) -> list[BoolExpr] | None:
    """Run one well-typed line's gates under the abstract semantics.

    Returns the final bit list, or None if the line never receives an H (its
    gate list is then empty).  The one-hot adds are done in place with early
    carry cut-off, so a gate costs O(live carry chain), not O(m).
    """
    if not gates:
        return None
    bits = [FALSE] * m
    bits[0] = var(gates[0].target)
    for gate in itertools.islice(gates, 1, None):
        n = gate.n
        if n > m:
            raise ValueError(f"rotation order {n} not representable in {m} bits")
        qc = var(gate.control)
        p = n - 1
        carry = and_(bits[p], qc)
        bits[p] = xor(bits[p], qc)
        p -= 1
        while p >= 0 and carry is not FALSE:
            carry, bits[p] = and_(bits[p], carry), xor(bits[p], carry)
            p -= 1
        # carry out of bit 1 is the modulo-one wrap: dropped
    return bits


def run_abstract(c: CircuitDescription) -> AbstractOutputs:
    """Interpret the whole circuit abstractly; raises CircuitTypeError.

    Gates on distinct lines commute under these semantics (controls tap
    initial values only), so each line is folded independently.
    """
    outputs: list[SymbolicBitVector | None] = []
    for gates in group_gates_by_line(c):
        bits = _interpret_line(c.m, gates)
        outputs.append(None if bits is None else SymbolicBitVector(c.m, tuple(bits)))
    return AbstractOutputs(c.m, tuple(outputs))
