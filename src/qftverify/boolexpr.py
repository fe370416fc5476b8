"""Hash-consed Boolean expressions and their algebraic normal form.

The rotation semantics only ever combines bits with XOR and AND (that is all a
ripple-carry adder needs), so expression nodes are limited to the constants 0
and 1, input variables b1..bm, and those two connectives.  Nodes are interned:
structurally equal expressions are always the same object, equality is
identity, and shared subterms cost nothing.  That sharing is what keeps
circuits with millions of gates tractable.

Equality of Boolean *functions* is decided through the algebraic normal form
(XOR of AND-monomials), which is canonical: two expressions denote the same
function exactly when their normal forms are identical sets of monomials.
Normalization carries a term budget so that a pathological expression fails
fast with :class:`AnfBudgetError` instead of consuming the machine; callers
may then fall back to an external solver.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "BoolExpr",
    "FALSE",
    "TRUE",
    "var",
    "xor",
    "and_",
    "evaluate",
    "ANFPoly",
    "anf_normalize",
    "AnfBudgetError",
    "DEFAULT_TERM_BUDGET",
]

# Per-bit monomial budget before normalization gives up (see module docstring).
DEFAULT_TERM_BUDGET = 1 << 20


class AnfBudgetError(Exception):
    """Normalization exceeded its monomial budget."""

    def __init__(self, budget: int):
        super().__init__(f"ANF exceeded the term budget of {budget} monomials")
        self.budget = budget


class BoolExpr:
    """One interned node of the expression DAG.

    Never constructed directly; use :data:`FALSE`, :data:`TRUE`, :func:`var`,
    :func:`xor` and :func:`and_`.  Because nodes are interned, ``a is b`` is
    both object and structural equality, and the default identity hash is the
    right one.
    """

    __slots__ = ("op", "left", "right", "index", "serial")

    op: str  # "0" | "1" | "var" | "xor" | "and"

    def __init__(self, op: str, left: "BoolExpr | None", right: "BoolExpr | None",
                 index: int | None, serial: int):
        self.op = op
        self.left = left
        self.right = right
        self.index = index
        self.serial = serial

    def __repr__(self) -> str:
        return f"BoolExpr({self})"

    def __str__(self) -> str:
        if self.op == "0":
            return "0"
        if self.op == "1":
            return "1"
        if self.op == "var":
            return f"b{self.index}"
        sym = " ^ " if self.op == "xor" else " & "
        return f"({self.left}{sym}{self.right})"


# Interning table.  setdefault is atomic under the GIL and node content is a
# pure function of the key, so concurrent construction is safe and yields
# identical results regardless of interleaving.
_TABLE: dict[tuple, BoolExpr] = {}
_SERIAL = itertools.count()
_ANF_LOCK = threading.Lock()

FALSE = _TABLE.setdefault(("0",), BoolExpr("0", None, None, None, next(_SERIAL)))
TRUE = _TABLE.setdefault(("1",), BoolExpr("1", None, None, None, next(_SERIAL)))


def var(index: int) -> BoolExpr:
    """The input variable ``b<index>`` (1-based)."""
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    key = ("var", index)
    node = _TABLE.get(key)
    if node is None:
        node = _TABLE.setdefault(key, BoolExpr("var", None, None, index, next(_SERIAL)))
    return node


def xor(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    """XOR with local simplification: x^0 = x, x^x = 0, arguments canonically ordered."""
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is b:
        return FALSE
    if a.serial > b.serial:
        a, b = b, a
    key = ("xor", a.serial, b.serial)
    node = _TABLE.get(key)
    if node is None:
        node = _TABLE.setdefault(key, BoolExpr("xor", a, b, None, next(_SERIAL)))
    return node


def and_(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    """AND with local simplification: x&0 = 0, x&1 = x, x&x = x."""
    if a is FALSE or b is FALSE:
        return FALSE
    if a is TRUE:
        return b
    if b is TRUE:
        return a
    if a is b:
        return a
    if a.serial > b.serial:
        a, b = b, a
    key = ("and", a.serial, b.serial)
    node = _TABLE.get(key)
    if node is None:
        node = _TABLE.setdefault(key, BoolExpr("and", a, b, None, next(_SERIAL)))
    return node


def evaluate(expr: BoolExpr, assignment: Mapping[int, int]) -> int:
    """Evaluate under a variable assignment (iterative; expressions can be deep).

    Raises ValueError if the expression mentions an unassigned variable.
    """
    cache: dict[BoolExpr, int] = {}
    stack = [expr]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        if node.op == "0":
            cache[node] = 0
            stack.pop()
        elif node.op == "1":
            cache[node] = 1
            stack.pop()
        elif node.op == "var":
            if node.index not in assignment:
                raise ValueError(f"unassigned variable b{node.index}")
            cache[node] = 1 if assignment[node.index] else 0
            stack.pop()
        else:
            left, right = node.left, node.right
            if left in cache and right in cache:
                if node.op == "xor":
                    cache[node] = cache[left] ^ cache[right]
                else:
                    cache[node] = cache[left] & cache[right]
                stack.pop()
            else:
                if right not in cache:
                    stack.append(right)
                if left not in cache:
                    stack.append(left)
    return cache[expr]


# A monomial is a frozenset of variable indices; the empty monomial is the
# constant 1.  A polynomial is a frozenset of monomials; empty means 0.
Monomial = frozenset
_ZERO_POLY: frozenset = frozenset()
_ONE_POLY: frozenset = frozenset({frozenset()})


@dataclass(frozen=True)
class ANFPoly:
    """Canonical XOR-of-monomials form of a Boolean function.

    Two Boolean functions are equal iff their ANFPoly values are equal.
    """

    monomials: frozenset

    def is_zero(self) -> bool:
        return not self.monomials

    def is_one(self) -> bool:
        return self.monomials == _ONE_POLY

    def __xor__(self, other: "ANFPoly") -> "ANFPoly":
        return ANFPoly(self.monomials.symmetric_difference(other.monomials))

    def mul(self, other: "ANFPoly", budget: int) -> "ANFPoly":
        """GF(2) product, with XOR cancellation of repeated monomials."""
        if len(self.monomials) * len(other.monomials) > 4 * budget:
            raise AnfBudgetError(budget)
        acc: set = set()
        for p in self.monomials:
            for q in other.monomials:
                merged = p | q
                if merged in acc:
                    acc.discard(merged)
                else:
                    acc.add(merged)
        if len(acc) > budget:
            raise AnfBudgetError(budget)
        return ANFPoly(frozenset(acc))

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        value = 0
        for mono in self.monomials:
            if all(assignment[v] for v in mono):
                value ^= 1
        return value

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        """Monomials as sorted tuples, ordered by (degree, variable indices)."""
        return sorted((tuple(sorted(m)) for m in self.monomials), key=lambda t: (len(t), t))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono in self.sorted_monomials():
            parts.append("1" if not mono else "*".join(f"b{v}" for v in mono))
        return " ^ ".join(parts)


ANF_ZERO = ANFPoly(_ZERO_POLY)
ANF_ONE = ANFPoly(_ONE_POLY)

# Memo of node -> monomial frozenset.  Entries are valid independent of the
# budget they were computed under; the budget only bounds fresh work.
_ANF_CACHE: dict[BoolExpr, frozenset] = {}
_ANF_CACHE[FALSE] = _ZERO_POLY
_ANF_CACHE[TRUE] = _ONE_POLY


def anf_normalize(expr: BoolExpr, budget: int = DEFAULT_TERM_BUDGET) -> ANFPoly:
    """The unique Zhegalkin polynomial of ``expr``.

    Idempotent and canonical: ``anf_normalize(e1) == anf_normalize(e2)`` iff
    e1 and e2 denote the same Boolean function.  Raises AnfBudgetError when a
    subresult would exceed ``budget`` monomials.
    """
    cache = _ANF_CACHE
    if expr in cache:
        return ANFPoly(cache[expr])
    stack = [expr]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        if node.op == "var":
            cache[node] = frozenset({frozenset({node.index})})
            stack.pop()
            continue
        left, right = node.left, node.right
        lhs = cache.get(left)
        rhs = cache.get(right)
        if lhs is None or rhs is None:
            if rhs is None:
                stack.append(right)
            if lhs is None:
                stack.append(left)
            continue
        if node.op == "xor":
            result = lhs.symmetric_difference(rhs)
        else:
            result = ANFPoly(lhs).mul(ANFPoly(rhs), budget).monomials
        if len(result) > budget:
            raise AnfBudgetError(budget)
        cache[node] = result
        stack.pop()
    return ANFPoly(cache[expr])


def clear_caches() -> None:
    """Drop the ANF memo (the interning table is kept; nodes stay valid)."""
    with _ANF_LOCK:
        for key in list(_ANF_CACHE):
            if key is not FALSE and key is not TRUE:
                del _ANF_CACHE[key]
