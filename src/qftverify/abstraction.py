"""Typed rotation semantics: wire typing and the per-control weights of a line.

On basis inputs every gate in these circuits acts as a rotation by a negative
power of two of a full turn, so a qubit's state abstracts to a width-m
*fractional bit-vector*: bit p (1-based, bit 1 most significant) has weight
2**-p, and the vector <.x1..xm> denotes the fraction of a full rotation
accumulated on the line.  Bits are Boolean functions of the circuit's input
variables b1..bm.

Wire typing: a line starts as Control (its initial Boolean value) and becomes
Data (a fractional bit-vector) at its unique H gate.  An H gate consumes a
Control and produces the one-bit-set vector conditioned on its input; a
rotation of order n adds, modulo 1, a one-hot vector at position n ANDed with
its control's initial value.  Violations of this discipline are the type
errors that expose structural circuit defects.

Controls tap initial values, so line i's phase is linear in the inputs:
sum_k b_k * c_k mod 1, where the weight c_k is 2**-1 from the H when k = i
plus 2**-n for each R(n) that k controls.  _line_weights folds a line into
these weights, and the checker decides it by comparing each weight with its
target.  The polynomial interpreter (_interpret_line, run_abstract,
eval_bits) and typecheck stay only because the benchmark's layer probes
import them; no verdict path uses them.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Mapping, Sequence

from .boolexpr import DEFAULT_TERM_BUDGET, FALSE, AnfBudgetError, and_, evaluate, sorted_monomials, var
from .circuit import CircuitDescription

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
    bits: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.bits) != self.width:
            raise ValueError(f"expected {self.width} bits, got {len(self.bits)}")


def eval_bits(v: SymbolicBitVector, assignment: Mapping[int, int]) -> tuple[int, ...]:
    """Concrete bits of ``v`` under an input assignment.

    Raises ValueError if a bit mentions a variable the assignment leaves unset.
    """
    unset = ~sum(1 << k for k in assignment)
    for bit in v.bits:
        for mono in bit:
            if mono & unset:
                raise ValueError(f"unassigned variable b{sorted_monomials({mono & unset})[0][0]}")
    true_vars = sum(1 << k for k, value in assignment.items() if value)
    return tuple(evaluate(bit, true_vars) for bit in v.bits)


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


# A typed line: its rotations' orders and controls in program order, or None
# for a line that never receives its H.  The H is implicit: on a well-typed
# line it is always the first gate, and it loads the line's own input.
Line = tuple[Sequence[int], Sequence[int]] | None


def group_gates_by_line(c: CircuitDescription) -> list[Line]:
    """The wire discipline, checked in one program-order walk that groups gates by line.

    A line takes at most one H, and no rotation before it.  The first gate
    that breaks this raises CircuitTypeError, located by program ordinal.
    Returns each line as integer columns: index 0 holds line 1, a line is
    ``(orders, controls)`` for its rotations in program order, and it is
    None exactly when it never receives an H.
    """
    lines: list[Line] = [None] * c.m
    for ordinal, line, n, control in zip(count(1), c.targets, c.orders, c.controls):
        columns = lines[line - 1]
        if not n:  # an H
            if columns is None:
                lines[line - 1] = ([], [])
            elif columns[0]:
                raise CircuitTypeError(
                    TypeErrorKind.H_ON_DATA_WIRE, line, ordinal,
                    f"H applied to line {line} after it became a data wire",
                )
            else:
                raise CircuitTypeError(
                    TypeErrorKind.DUPLICATE_H, line, ordinal,
                    f"second H gate on line {line}",
                )
        elif columns is None:
            raise CircuitTypeError(
                TypeErrorKind.RN_DATA_PORT_GOT_CONTROL, line, ordinal,
                f"rotation targets line {line}, which has no preceding H "
                f"(control value on a data port)",
            )
        else:
            columns[0].append(n)
            columns[1].append(control)
    return lines


def typecheck(c: CircuitDescription) -> None:
    """Check the wire-typing discipline; raise CircuitTypeError on violation.

    Success means every line has at most one H and no rotation targets a line
    before its H.
    """
    group_gates_by_line(c)


@functools.lru_cache(maxsize=1)
def _var_row(m: int) -> list[frozenset[int]]:
    """b1..bm, then m FALSE; never mutated.  Entry k-1 is input b_k's
    variable, and the m entries from index i-1 are qubit i's target form."""
    return [*map(var, range(1, m + 1)), *(FALSE,) * m]


def _check_line(m: int, i: int, orders: Sequence[int], controls: Sequence[int]) -> None:
    """Raise ValueError unless line i of m has one control per order, and
    i, every order and every control are in 1..m."""
    if not 1 <= i <= m:
        raise ValueError(f"line {i} out of range 1..{m}")
    if len(orders) != len(controls):
        raise ValueError(f"line {i} has {len(orders)} orders but {len(controls)} controls")
    if not orders:
        return
    low, high = min(orders), max(orders)
    if high > m or low < 1:
        raise ValueError(f"rotation order {high if high > m else low} not representable in {m} bits")
    low, high = min(controls), max(controls)
    if high > m or low < 1:
        raise ValueError(f"control {high if high > m else low} out of range 1..{m}")


def _fold(orders: Sequence[int]) -> list[int]:
    """The orders n whose bit is set in the sum of 2**-n over ``orders``,
    modulo 1, least significant first.

    Counts of one order carry to the next coarser order, two for one, and
    the carry out of order 1 is the modulo-one wrap: it is dropped.  Between
    two orders present the carry halves at each step, so the work is
    O(len(orders)), whatever the width.
    """
    counts = Counter(orders)
    bits: list[int] = []
    carry = p = 0  # carry units of 2**-p wait at order p
    for n in sorted(counts, reverse=True):
        while carry and p > n:
            if carry & 1:
                bits.append(p)
            carry >>= 1
            p -= 1
        carry += counts[n]
        p = n
    while carry and p:
        if carry & 1:
            bits.append(p)
        carry >>= 1
        p -= 1
    return bits


def _line_weights(m: int, i: int, orders: Sequence[int],
                  controls: Sequence[int]) -> dict[int, list[int]]:
    """Line i's per-control weights: c_k as the orders of its set bits (see
    _fold), for every k that the H or a rotation on the line taps.  Every
    other weight is zero.  Raises ValueError for a line that _check_line
    rejects.
    """
    _check_line(m, i, orders, controls)
    taps: dict[int, list[int]] = {i: [1]}  # the H loads b_i at 2**-1
    for k, n in zip(controls, orders):
        taps.setdefault(k, []).append(n)
    return {k: ns if len(ns) == 1 else _fold(ns) for k, ns in taps.items()}


def _interpret_line(m: int, i: int, line: Line, budget: int = DEFAULT_TERM_BUDGET,
                    values: Sequence[frozenset[int]] | None = None) -> list[frozenset[int]] | None:
    """Run line i under the abstract semantics.

    ``line`` is ``(orders, controls)`` as group_gates_by_line gives it;
    returns the final bit list, or None for a line that never receives an H.
    ``values[k-1]`` is the value of input b_k: its variable by default, or a
    constant to run the line on one input.  The one-hot adds are done in
    place with early carry cut-off, so a gate costs O(live carry chain), not
    O(m).  Raises ValueError for a line that _check_line rejects, and
    AnfBudgetError when a sum or a carry exceeds ``budget`` monomials.
    """
    if line is None:
        return None
    orders, controls = line
    _check_line(m, i, orders, controls)
    if values is None:
        values = _var_row(m)
    bits = [FALSE] * m
    bits[0] = values[i - 1]
    for n, k in zip(orders, controls):
        carry = values[k - 1]
        p = n - 1
        while carry:
            bit = bits[p]
            if not bit:
                bits[p] = carry  # keeps var(k) itself, so a correct bit is found by identity
                break
            total = bit ^ carry
            if len(total) > budget:
                raise AnfBudgetError(budget)
            bits[p] = total
            if p == 0:
                break  # the carry out of bit 1 is the modulo-one wrap: dropped
            carry = and_(bit, carry, budget)
            p -= 1
    return bits


def run_abstract(c: CircuitDescription) -> AbstractOutputs:
    """Interpret the whole circuit abstractly; raises CircuitTypeError.

    Gates on distinct lines commute under these semantics (controls tap
    initial values only), so each line is folded independently.
    """
    outputs: list[SymbolicBitVector | None] = []
    for i, line in enumerate(group_gates_by_line(c), start=1):
        bits = _interpret_line(c.m, i, line)
        outputs.append(None if bits is None else SymbolicBitVector(c.m, tuple(bits)))
    return AbstractOutputs(c.m, tuple(outputs))
