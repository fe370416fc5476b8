"""The polynomial interpreter: line bits as Boolean functions in algebraic normal form.

No verdict path uses this module: the checker decides a line by its
per-control weights (see abstraction), and no other module of the package
imports it.  It is the one home of the polynomial (ANF) view of a line,
kept for a single caller outside the tests, the benchmark's worker
(perfbench/worker.py), which imports seven of its names through the
package: typecheck, run_abstract, anf_normalize, check_qubit,
target_vector, find_counterexample and eval_bits.  Once the worker is
ported to the weights (ROADMAP item 2), this file and those seven
re-exports are deleted (ROADMAP item 3).

The rotation semantics only ever combines bits with XOR and AND (that is all a
ripple-carry adder needs), so every bit is held directly as its algebraic
normal form: the XOR of AND-monomials, which is canonical.  Two bits denote
the same Boolean function exactly when they are equal polynomials.

A monomial is an ``int`` whose bit k stands for b_k, so the constant
monomial is ``0`` and a product of monomials is their ``|``; a polynomial is
a ``frozenset`` of monomials, so the XOR of two polynomials is their ``^``
and the empty set is 0.  :func:`sorted_monomials` is the one decoder back to
variable indices.  Products carry a term budget so that a pathological line
fails fast with :class:`AnfBudgetError` instead of consuming the machine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

from .abstraction import Line, _check_line, group_gates_by_line
from .checker import VERIFIED, VIOLATION, QubitVerdict, _unrotated
from .circuit import CircuitDescription

__all__ = [
    "FALSE",
    "TRUE",
    "var",
    "and_",
    "evaluate",
    "anf_normalize",
    "sorted_monomials",
    "AnfBudgetError",
    "DEFAULT_TERM_BUDGET",
    "SymbolicBitVector",
    "AbstractOutputs",
    "typecheck",
    "run_abstract",
    "eval_bits",
    "target_vector",
    "find_counterexample",
    "check_qubit",
]

# Per-polynomial monomial budget (see module docstring).
DEFAULT_TERM_BUDGET = 1 << 20

FALSE: frozenset[int] = frozenset()
TRUE: frozenset[int] = frozenset({0})


class AnfBudgetError(Exception):
    """A polynomial exceeded its monomial budget."""

    def __init__(self, budget: int):
        super().__init__(f"ANF exceeded the term budget of {budget} monomials")


# One polynomial per variable index, so a line bit that is exactly its target
# variable is recognised by identity.  setdefault is atomic under the GIL.
_VARS: dict[int, frozenset[int]] = {}


def var(index: int) -> frozenset[int]:
    """The input variable ``b<index>`` (1-based)."""
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    poly = _VARS.get(index)
    if poly is None:
        poly = _VARS.setdefault(index, frozenset({1 << index}))
    return poly


def and_(lhs: frozenset[int], rhs: frozenset[int],
         budget: int = DEFAULT_TERM_BUDGET) -> frozenset[int]:
    """GF(2) product of two polynomials, with XOR cancellation of repeated
    monomials.  Raises AnfBudgetError when the operands or the result are
    too large for ``budget``."""
    if len(lhs) * len(rhs) > 4 * budget:
        raise AnfBudgetError(budget)
    acc: set[int] = set()
    for p in lhs:
        for q in rhs:
            merged = p | q
            if merged in acc:
                acc.discard(merged)
            else:
                acc.add(merged)
    if len(acc) > budget:
        raise AnfBudgetError(budget)
    return frozenset(acc)


def evaluate(poly: frozenset[int], true_vars: int) -> int:
    """Value of ``poly`` when exactly the variables in the mask ``true_vars``
    are 1: the parity of its monomials that lie inside the mask."""
    value = 0
    for mono in poly:
        if mono & true_vars == mono:
            value ^= 1
    return value


def sorted_monomials(poly: frozenset[int]) -> list[tuple[int, ...]]:
    """The monomials of ``poly`` as ascending index tuples, ordered by
    (degree, indices); the constant monomial is ``()``."""
    decoded = []
    for mono in poly:
        indices = []
        while mono:
            low = mono & -mono
            indices.append(low.bit_length() - 1)
            mono ^= low
        decoded.append(tuple(indices))
    return sorted(decoded, key=lambda t: (len(t), t))


def anf_normalize(poly: frozenset[int]) -> frozenset[int]:
    """The normal form of a bit, which is the bit itself.

    Bits are born in normal form, so this is the identity.  It stays because
    the benchmark's worker times a normalization step through it.
    """
    return poly


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


def _interpret_line(m: int, i: int, line: Line,
                    budget: int = DEFAULT_TERM_BUDGET) -> list[frozenset[int]] | None:
    """Run line i under the abstract semantics.

    ``line`` is ``(orders, controls)`` as group_gates_by_line gives it;
    returns the final bit list, or None for a line that never receives an H.
    The one-hot adds are done in place with early carry cut-off, so a gate
    costs O(live carry chain), not O(m).  Raises ValueError for a line that
    _check_line rejects, and AnfBudgetError when a sum or a carry exceeds
    ``budget`` monomials.
    """
    if line is None:
        return None
    orders, controls = line
    _check_line(m, i, orders, controls)
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


def target_vector(i: int, m: int) -> SymbolicBitVector:
    """The required output form for qubit i: bits b(i), b(i+1), .., b(m), 0, .., 0."""
    if not 1 <= i <= m:
        raise IndexError(f"qubit {i} out of range 1..{m}")
    return SymbolicBitVector(m, tuple(_var_row(m)[i - 1:i - 1 + m]))


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
    assignment.update(dict.fromkeys(sorted_monomials(diff)[0], 1))
    return assignment


def check_qubit(outputs: AbstractOutputs, i: int) -> QubitVerdict:
    """Decide one qubit of precomputed abstract outputs by comparing its
    bits with the target form; a differing bit's difference polynomial
    gives the counterexample's true inputs (see find_counterexample)."""
    m = outputs.width
    vec = outputs.qubit(i)
    if vec is None:
        return _unrotated(i, m)
    target = target_vector(i, m)
    # var(k) and FALSE are single objects, so a correct line matches by identity
    if vec == target:
        return QubitVerdict(qubit=i, status=VERIFIED)
    for p, (actual_bit, target_bit) in enumerate(zip(vec.bits, target.bits), start=1):
        if actual_bit != target_bit:
            break
    true_vars = sorted_monomials(actual_bit ^ target_bit)[0]
    mask = sum(1 << v for v in true_vars)
    actual = tuple([evaluate(b, mask) if b else 0 for b in vec.bits])
    expected = tuple([evaluate(b, mask) if b else 0 for b in target.bits])
    if actual == expected:
        raise AssertionError(f"qubit {i}: counterexample failed to separate actual from "
                             f"expected at bit {p}")
    return QubitVerdict(qubit=i, status=VIOLATION, counterexample=dict.fromkeys(true_vars, 1),
                        expected=expected, actual=actual, detail=f"first difference at bit {p}")
