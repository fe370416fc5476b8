"""Boolean functions of the input variables, kept in algebraic normal form.

The rotation semantics only ever combines bits with XOR and AND (that is all a
ripple-carry adder needs), so every bit is held directly as its algebraic
normal form: the XOR of AND-monomials, which is canonical.  Two bits denote
the same Boolean function exactly when they are equal polynomials, so no
expression layer or normalization step stands between the interpreter and
the checker.

A monomial is an ``int`` whose bit k stands for b_k, so the constant
monomial is ``0`` and a product of monomials is their ``|``; a polynomial is
a ``frozenset`` of monomials, so the XOR of two polynomials is their ``^``
and the empty set is 0.  :func:`sorted_monomials` is the one decoder back to
variable indices.  Products carry a term budget so that a pathological line
fails fast with :class:`AnfBudgetError` instead of consuming the machine.

No verdict path uses this module any more: the checker decides a line by
its per-control weights (see abstraction).  It stays only because the
benchmark's layer probes import it, through the polynomial interpreter.
"""

from __future__ import annotations

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
    the benchmark's layer probes time a normalization step through it.
    """
    return poly
