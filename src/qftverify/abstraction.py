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

Controls are read at their initial values, so line i's phase is linear in
the inputs: sum_k b_k * c_k mod 1, where the weight c_k is 2**-1 from the H
when k = i plus 2**-n for each R(n) that k controls.  _line_weights folds a
line into these weights, and the checker decides it by comparing each weight
with its target.  The typing does not enforce that reading: a control line
already past its H is still read at its initial bit, so such a circuit can be
verified although a real controlled phase differs (ROADMAP item 1).
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import count
from typing import Sequence

from .circuit import CircuitDescription

__all__ = [
    "TypeErrorKind",
    "CircuitTypeError",
    "group_gates_by_line",
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


def bits_to_string(bits: Sequence[int]) -> str:
    """Render concrete bits in fractional notation, e.g. (1,0,1) -> "0.101"."""
    return "0." + "".join(str(b) for b in bits)


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
