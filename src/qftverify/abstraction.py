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
errors that expose structural circuit defects.  The typing groups a
circuit's gates by line, and each typed line is a pair of arrays, its
rotations' orders and controls: a few bytes per gate, with no object per
gate.  A circuit held whole gives slices of its own columns
(group_gates_by_line).  A circuit streamed from a file is grouped a block
at a time as it is decoded (_Grouping), and a line that equals its
textbook prefix is held as that prefix's length only, so the read holds
O(m) state plus the rotations of the lines that deviate from the textbook;
such a line is then given as slices of qft_line's textbook columns.

Controls are read at their initial values, so line i's phase is linear in
the inputs: sum_k b_k * c_k mod 1, where the weight c_k is 2**-1 from the H
when k = i plus 2**-n for each R(n) that k controls.  _line_taps lists each
control's orders n, and _weight sums them as an integer numerator over 2**m:
Python's integer addition is the carry chain, and masking to m bits drops
the wrap of a full turn.  The checker, its solver-model check and the oracle
all read a line's phase this one way.  The typing does not enforce the
initial-value reading: a control line already past its H is still read at
its initial bit, so such a circuit can be verified although a real
controlled phase differs (ROADMAP item 1).
"""

from __future__ import annotations

import enum
from array import array
from itertools import chain, compress, count, islice
from operator import ne
from typing import Iterable, Iterator, Sequence

from .circuit import CircuitDescription, _naturals

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
    """Render bits in fractional notation through the last set bit: (1,0,1,0) -> "0.101"."""
    return "0." + "".join(map(str, bits[:max(compress(count(1), bits), default=1)]))


# A typed line: its rotations' orders and controls in program order, or None
# for a line that never receives its H.  The H is implicit: on a well-typed
# line it is always the first gate, and it loads the line's own input.
# group_gates_by_line, _Grouping.iter_lines and qft_line give each column as
# an array of m's column typecode.  Any other sequence of ints, a list for
# example, is the same line to every reader, but only arrays take the
# checker's textbook comparison.
Line = tuple[Sequence[int], Sequence[int]] | None


def group_gates_by_line(c: CircuitDescription) -> list[Line]:
    """The wire discipline, checked in one program-order walk that groups gates by line.

    A line takes at most one H, and no rotation before it.  The first gate
    that breaks this raises CircuitTypeError, located by program ordinal.
    Returns each line as integer columns: index 0 holds line 1, a line is
    ``(orders, controls)`` for its rotations in program order, and it is
    None exactly when it never receives an H.  Each column is an array
    slice of the circuit's own columns, extended by each later run of the
    line.  This is _Grouping fed the whole circuit as one block.
    """
    grouping = _Grouping(c.m)
    grouping.feed(c.targets, c.orders, c.controls)
    return grouping.lines


class _Grouping:
    """The typed run walk of a circuit fed a block of columns at a time.

    feed() steps over the maximal runs of gates on one line in a block,
    whose ends are found at C speed.  A line's first run must open with its
    H, and no later gate of the line may be an H.  A run cut by a block's
    end is two runs of one line, which type and group as the one run does,
    and a type error is located by its ordinal in the whole circuit.

    ``lines`` holds each line as group_gates_by_line gives it, or, after
    compact(), as the int length L of its textbook prefix, the first L
    rotations of qft_line.  A later run that continues that prefix only
    adds to L; one that deviates turns the line back into arrays, which
    never become a prefix again.  So a circuit fed a block at a time and
    compacted after each block holds O(m) state plus the rotations of the
    lines that deviate from the textbook.
    """

    __slots__ = ("m", "lines", "opened")

    def __init__(self, m: int):
        self.m = m
        self.lines: list = [None] * m
        self.opened: list[int] = []  # lines that got their H since the last compact()

    def feed(self, targets: Sequence[int], orders: Sequence[int], controls: Sequence[int],
             offset: int = 0) -> None:
        """Type and group the next block of the circuit's columns, which
        follows ``offset`` gates; raise the first CircuitTypeError it holds."""
        lines, opened = self.lines, self.opened
        ends = compress(count(1), map(ne, targets, islice(targets, 1, None)))
        start = 0
        for end in chain(ends, (len(targets),) if targets else ()):
            line = targets[start]
            columns = lines[line - 1]
            first = start
            if columns is None:
                if orders[start]:
                    raise CircuitTypeError(
                        TypeErrorKind.RN_DATA_PORT_GOT_CONTROL, line, offset + start + 1,
                        f"rotation targets line {line}, which has no preceding H "
                        f"(control value on a data port)",
                    )
                first += 1  # the line's H
            elif type(columns) is int:  # a compacted textbook prefix
                length = columns + end - start
                if length <= self.m - line and (orders[start:end], controls[start:end]) \
                        == _textbook(self.m, line, columns, length):
                    lines[line - 1] = length
                    start = end
                    continue
                columns = lines[line - 1] = _textbook(self.m, line, 0, columns)
            run_orders = orders[first:end]
            if 0 in run_orders:  # an H on a line that already has one
                k = run_orders.index(0)
                if k or columns and columns[0]:
                    raise CircuitTypeError(
                        TypeErrorKind.H_ON_DATA_WIRE, line, offset + first + k + 1,
                        f"H applied to line {line} after it became a data wire",
                    )
                raise CircuitTypeError(
                    TypeErrorKind.DUPLICATE_H, line, offset + first + k + 1,
                    f"second H gate on line {line}",
                )
            if columns is None:
                lines[line - 1] = run_orders, controls[first:end]
                opened.append(line)
            else:
                columns[0].extend(run_orders)
                columns[1].extend(controls[first:end])
            start = end

    def compact(self) -> None:
        """Hold each line opened since the last compact() as the length of
        its textbook prefix if its arrays equal that prefix."""
        m, lines = self.m, self.lines
        for line in self.opened:
            length = len(lines[line - 1][0])
            if length <= m - line and lines[line - 1] == _textbook(m, line, 0, length):
                lines[line - 1] = length
        self.opened.clear()

    def iter_lines(self) -> Iterator[Line]:
        """Lines 1..m as group_gates_by_line gives them, a compacted line
        made anew from its textbook prefix as it is pulled."""
        for i, line in enumerate(self.lines, start=1):
            yield _textbook(self.m, i, 0, line) if type(line) is int else line


def _textbook(m: int, i: int, start: int, stop: int) -> tuple[array, array]:
    """Rotations start..stop-1, counted from 0, of line i's qft_line(m, i),
    as the slices of _naturals(m) that qft_line takes."""
    naturals = _naturals(m)
    return naturals[2 + start:2 + stop], naturals[i + 1 + start:i + 1 + stop]


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


def _line_taps(m: int, i: int, orders: Sequence[int],
               controls: Sequence[int]) -> dict[int, list[int]]:
    """Line i's raw taps: for every k that the H or a rotation on the line
    taps, the orders n of the terms 2**-n that b_k adds, so c_k is their
    _weight.  Every other weight is zero.  Raises ValueError for a line
    that _check_line rejects.
    """
    _check_line(m, i, orders, controls)
    taps: dict[int, list[int]] = {i: [1]}  # the H loads b_i at 2**-1
    for k, n in zip(controls, orders):
        taps.setdefault(k, []).append(n)
    return taps


def _weight(m: int, orders: Iterable[int]) -> int:
    """The sum of 2**-n over ``orders``, modulo 1, as a numerator over 2**m."""
    return sum(1 << m - n for n in orders) & ((1 << m) - 1)
