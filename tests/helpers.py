"""Shared test oracles, kept independent of the code paths they check."""

from __future__ import annotations

import itertools
import random

from qftverify.boolexpr import FALSE, TRUE, and_, sorted_monomials, var
from qftverify.circuit import CircuitDescription, GateInstance


def all_basis_inputs(m: int):
    """Every (b1..bm) bit tuple."""
    return itertools.product((0, 1), repeat=m)


# A Boolean formula as a plain tuple tree: 0, 1, ("var", k), ("xor", a, b)
# or ("and", a, b).  Its value is computed with int & and ^, independently of
# the polynomials under test.


def tree_value(tree, assignment) -> int:
    """Value of a formula tree under an assignment of its variables."""
    if tree in (0, 1):
        return tree
    if tree[0] == "var":
        return assignment[tree[1]]
    left, right = tree_value(tree[1], assignment), tree_value(tree[2], assignment)
    return left ^ right if tree[0] == "xor" else left & right


def tree_poly(tree) -> frozenset[int]:
    """The polynomial of a formula tree, built with the library's operations."""
    if tree in (0, 1):
        return TRUE if tree else FALSE
    if tree[0] == "var":
        return var(tree[1])
    left, right = tree_poly(tree[1]), tree_poly(tree[2])
    return left ^ right if tree[0] == "xor" else and_(left, right)


def truth_table(tree, num_vars: int) -> tuple[int, ...]:
    """Brute-force table of a formula tree over b1..b<num_vars>, in
    lexicographic input order."""
    rows = []
    for bits in all_basis_inputs(num_vars):
        assignment = {k + 1: bits[k] for k in range(num_vars)}
        rows.append(tree_value(tree, assignment))
    return tuple(rows)


def eval_poly(poly, assignment) -> int:
    """Value of an ANF polynomial under an assignment: the parity of its
    monomials whose variables are all set."""
    value = 0
    for mono in sorted_monomials(poly):
        if all(assignment[v] for v in mono):
            value ^= 1
    return value


def random_tree(rng: random.Random, num_vars: int, depth: int):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return 0
        if roll < 0.2:
            return 1
        return ("var", rng.randint(1, num_vars))
    a = random_tree(rng, num_vars, depth - 1)
    b = random_tree(rng, num_vars, depth - 1)
    return ("xor" if rng.random() < 0.5 else "and", a, b)


def concrete_line_values(c: CircuitDescription, bits: tuple[int, ...]) -> list[int | None]:
    """Integer-arithmetic execution of the rotation semantics.

    Independent of the symbolic interpreter: each line's state is an m-bit
    accumulator; H loads the input bit at the top position, a rotation of
    order n adds 2**(m-n) modulo 2**m when its control's input bit is set.
    Returns per-line accumulators (None where a line never receives an H).
    Assumes the circuit typechecks.
    """
    m = c.m
    modulus = 1 << m
    acc: list[int | None] = [None] * m
    for g in c.gates:
        t = g.target - 1
        if g.kind == "H":
            acc[t] = bits[t] << (m - 1)
        elif bits[g.control - 1]:
            acc[t] = (acc[t] + (1 << (m - g.n))) % modulus
    return acc


def bits_as_int(bit_tuple) -> int:
    value = 0
    for b in bit_tuple:
        value = (value << 1) | b
    return value


def spearman(xs, ys) -> float:
    """Rank correlation with average ranks on ties."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    if den == 0:
        return 1.0 if len(set(zip(rx, ry))) <= 1 else 0.0
    return num / den


def substitution_sites(c: CircuitDescription) -> list[int]:
    """Gate indices of rotations that can be split into two of the next order."""
    return [k for k, g in enumerate(c.gates) if g.kind == "R" and g.n + 1 <= c.m]


def split_rotation(c: CircuitDescription, gate_index: int) -> CircuitDescription:
    """Replace one rotation with two rotations of half the angle, same control.

    The total rotation is unchanged (2 * 2**-(n+1) == 2**-n of a turn), so
    the result must still verify.
    """
    old = c.gates[gate_index]
    assert old.kind == "R" and old.n + 1 <= c.m
    half = GateInstance("R", old.target, n=old.n + 1, control=old.control)
    gates = c.gates[:gate_index] + (half, half) + c.gates[gate_index + 1:]
    return CircuitDescription(c.m, gates)
