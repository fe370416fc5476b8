"""Boolean expressions and their algebraic normal form.

The rotation semantics only ever combines bits with XOR and AND (that is all a
ripple-carry adder needs), so expression nodes are limited to the constants 0
and 1, input variables b1..bm, and those two connectives.  Nodes are plain
objects, not interned: the constants and each variable are single objects,
so ``e is var(k)`` is an exact test, but structurally equal compound
expressions built separately are distinct.  Each node memoizes its own normal
form, so the memo lives exactly as long as the expression and no state is
shared between verifications.

Equality of Boolean *functions* is decided through the algebraic normal form
(XOR of AND-monomials), which is canonical: two expressions denote the same
function exactly when their normal forms are identical sets of monomials.  A
monomial is an ``int`` whose bit k stands for b_k, so the constant monomial
is ``0`` and a product of monomials is their ``|``; a polynomial is a
``frozenset`` of monomials, so the XOR of two polynomials is their ``^`` and
the empty set is 0.  :func:`sorted_monomials` is the one decoder back to
variable indices.  Normalization carries a term budget so that a
pathological expression fails fast with :class:`AnfBudgetError` instead of
consuming the machine; callers may then fall back to an external solver.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "BoolExpr",
    "FALSE",
    "TRUE",
    "var",
    "xor",
    "and_",
    "evaluate",
    "anf_normalize",
    "sorted_monomials",
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
    """One node of the expression DAG.

    Never constructed directly; use :data:`FALSE`, :data:`TRUE`, :func:`var`,
    :func:`xor` and :func:`and_`.  Equality and hashing are by identity, which
    is structural equality only for the constants and variables; compare the
    functions of compound nodes with :func:`anf_normalize`.  ``anf`` holds the
    node's polynomial, a frozenset of bitmask monomials (see the module
    docstring), once it has been normalized (None before); the constants are
    born normalized.
    """

    __slots__ = ("op", "left", "right", "index", "anf")

    op: str  # "0" | "1" | "var" | "xor" | "and"

    def __init__(self, op: str, left: "BoolExpr | None", right: "BoolExpr | None",
                 index: int | None, anf: frozenset[int] | None = None):
        self.op = op
        self.left = left
        self.right = right
        self.index = index
        self.anf = anf

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


FALSE = BoolExpr("0", None, None, None, frozenset())
TRUE = BoolExpr("1", None, None, None, frozenset({0}))

# One node per variable index, so a line bit that is exactly its target
# variable is recognised by identity.  setdefault is atomic under the GIL.
_VARS: dict[int, BoolExpr] = {}


def var(index: int) -> BoolExpr:
    """The input variable ``b<index>`` (1-based)."""
    if index < 1:
        raise ValueError(f"variable index must be >= 1, got {index}")
    node = _VARS.get(index)
    if node is None:
        node = _VARS.setdefault(index, BoolExpr("var", None, None, index))
    return node


def xor(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    """XOR with local simplification: x^0 = x, x^x = 0."""
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is b:
        return FALSE
    return BoolExpr("xor", a, b, None)


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
    return BoolExpr("and", a, b, None)


def _evaluate_all(roots: Iterable[BoolExpr], assignment: Mapping[int, int]) -> list[int]:
    """Values of ``roots`` under an assignment, from one iterative post-order
    walk with one memo, so shared subterms are evaluated once."""
    cache: dict[BoolExpr, int] = {FALSE: 0, TRUE: 1}
    values = []
    for root in roots:
        stack = [] if root in cache else [root]
        while stack:
            node = stack[-1]
            if node in cache:
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
        values.append(cache[root])
    return values


def evaluate(expr: BoolExpr, assignment: Mapping[int, int]) -> int:
    """Evaluate under a variable assignment (iterative; expressions can be deep).

    Raises ValueError if the expression mentions an unassigned variable.
    """
    return _evaluate_all((expr,), assignment)[0]


def _product(lhs: frozenset[int], rhs: frozenset[int], budget: int) -> frozenset[int]:
    """GF(2) product of two polynomials, with XOR cancellation of repeated monomials."""
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


def anf_normalize(expr: BoolExpr, budget: int = DEFAULT_TERM_BUDGET) -> frozenset[int]:
    """The unique Zhegalkin polynomial of ``expr``, which is ``expr.anf``.

    Idempotent and canonical: ``anf_normalize(e1) == anf_normalize(e2)`` iff
    e1 and e2 denote the same Boolean function, and the XOR of two results is
    the polynomial of the XOR of their expressions.  Raises AnfBudgetError
    when a subresult would exceed ``budget`` monomials.
    """
    stack = [expr]
    while stack:
        node = stack[-1]
        if node.anf is not None:
            stack.pop()
            continue
        if node.op == "var":
            node.anf = frozenset({1 << node.index})
            stack.pop()
            continue
        left, right = node.left, node.right
        lhs, rhs = left.anf, right.anf
        if lhs is None or rhs is None:
            if rhs is None:
                stack.append(right)
            if lhs is None:
                stack.append(left)
            continue
        if node.op == "xor":
            result = lhs ^ rhs
        else:
            result = _product(lhs, rhs, budget)
        if len(result) > budget:
            raise AnfBudgetError(budget)
        node.anf = result
        stack.pop()
    return expr.anf
