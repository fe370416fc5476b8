import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qftverify.abstraction import _interpret_line
from qftverify.boolexpr import (
    AnfBudgetError,
    FALSE,
    TRUE,
    and_,
    anf_normalize,
    evaluate,
    sorted_monomials,
    var,
)
from qftverify.checker import find_counterexample
from helpers import all_basis_inputs, eval_poly, random_tree, tree_poly, tree_value, truth_table


def mask(*true_vars: int) -> int:
    return sum(1 << k for k in true_vars)


class TestInterning:
    def test_structural_sharing(self):
        assert var(7) is var(7)

    def test_var_index_validation(self):
        with pytest.raises(ValueError):
            var(0)


class TestEvaluate:
    def test_basic(self):
        e = var(1) ^ and_(var(2), var(3))
        assert evaluate(e, mask(1, 2)) == 1
        assert evaluate(e, mask(1, 2, 3)) == 0

    def test_unassigned_variable(self):
        # a variable outside the mask is false
        assert evaluate(var(1) ^ var(2), mask(1)) == 1
        assert evaluate(and_(var(1), var(2)), mask(1)) == 0

    def test_deep_chain_is_iterative(self):
        e = var(1)
        for k in range(2, 5002):
            e = and_(e, var(k))
        assert sorted_monomials(e) == [tuple(range(1, 5002))]
        assert evaluate(e, mask(*range(1, 5002))) == 1
        assert evaluate(e, mask(*range(1, 5002)) ^ mask(3000)) == 0


class TestAnf:
    def test_xor_self_cancels(self):
        assert not var(1) ^ var(1)
        # two separately built polynomials of one function cancel too
        assert not (var(1) ^ var(2)) ^ (var(2) ^ var(1))

    def test_absorption_to_zero(self):
        # b1 & (1 ^ b1) expands to b1 ^ b1*b1 = b1 ^ b1 = 0
        assert not and_(var(1), TRUE ^ var(1))

    def test_idempotent_product(self):
        # (b & x) & (b & x) at the same position keeps the single monomial
        prod = and_(var(1), var(2))
        assert sorted_monomials(and_(prod, and_(var(2), var(1)))) == [(1, 2)]

    def test_constants(self):
        assert not FALSE
        assert sorted_monomials(TRUE) == [()]
        assert sorted_monomials(var(4)) == [(4,)]
        assert and_(var(4), TRUE) == var(4) and not and_(var(4), FALSE)

    def test_idempotent(self):
        e = and_(var(1), var(2)) ^ var(3)
        assert anf_normalize(e) is e

    def test_canonicity_random(self):
        # Equal polynomials exactly when brute-force truth tables agree.
        rng = random.Random(1318)
        for _ in range(300):
            nv = rng.randint(1, 10)
            t1 = random_tree(rng, nv, 5)
            t2 = random_tree(rng, nv, 5)
            same_table = truth_table(t1, nv) == truth_table(t2, nv)
            same_anf = tree_poly(t1) == tree_poly(t2)
            assert same_table == same_anf, f"{t1} vs {t2}"

    def test_anf_evaluate_matches_expr(self):
        rng = random.Random(4)
        for _ in range(100):
            nv = rng.randint(1, 8)
            tree = random_tree(rng, nv, 5)
            poly = tree_poly(tree)
            for bits in [(0,) * nv, (1,) * nv, tuple(rng.randint(0, 1) for _ in range(nv))]:
                assignment = {k + 1: bits[k] for k in range(nv)}
                want = tree_value(tree, assignment)
                assert eval_poly(poly, assignment) == want
                assert evaluate(poly, mask(*(k for k, v in assignment.items() if v))) == want

    def test_budget_overflow(self):
        # Product of (1 ^ b_i) terms has 2**k monomials.
        poly = TRUE
        with pytest.raises(AnfBudgetError):
            for k in range(1, 13):
                poly = and_(poly, TRUE ^ var(k), budget=100)
        assert len(poly) <= 100

    def test_line_budget_overflow(self):
        # same-position rotations with distinct controls: the carry into bit
        # 2 is the product of all of them, which a tiny budget cannot hold
        line = ([8] * 7, list(range(2, 9)))
        with pytest.raises(AnfBudgetError):
            _interpret_line(8, 1, line, budget=4)
        assert max(map(len, _interpret_line(8, 1, line))) > 4

    def test_monomials_are_sorted(self):
        poly = and_(var(2), var(1)) ^ var(3) ^ TRUE
        assert sorted_monomials(poly) == [(), (3,), (1, 2)]

    def test_wide_indices(self):
        poly = and_(var(1), var(10_000))
        assert sorted_monomials(poly) == [(1, 10_000)]
        assignment = find_counterexample(poly, 10_000)
        assert len(assignment) == 10_000
        assert [k for k, v in assignment.items() if v] == [1, 10_000]


class TestConcurrency:
    def test_parallel_normalization_is_deterministic(self):
        # threads meet new variable indices in different orders, racing on
        # the var cache: each must get the one polynomial per index, and
        # lines over those indices interpret as in a sequential pass (only
        # bits 1..8 can be set, so only those are compared)
        from concurrent.futures import ThreadPoolExecutor

        m = 54_000
        fresh = list(range(50_000, m))
        rng = random.Random(77)
        lines = []
        for _ in range(64):
            k = rng.randint(1, 8)
            lines.append(([rng.randint(1, 8) for _ in range(k)], [rng.choice(fresh) for _ in range(k)]))

        def work(seed):
            order = fresh[:]
            random.Random(seed).shuffle(order)
            polys = {k: var(k) for k in order}
            return polys, [_interpret_line(m, 1, line)[:8] for line in lines]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        sequential = [_interpret_line(m, 1, line)[:8] for line in lines]
        for polys, bits in results:
            assert all(polys[k] is var(k) for k in fresh)
            assert bits == sequential


@st.composite
def shared_dags(draw):
    """A random DAG over b1..bk as steps (op, left, right), each combining
    two earlier nodes by index: 0 and 1 are the constants, 2.. the variables."""
    nv = draw(st.integers(1, 6))
    steps = []
    for size in range(2 + nv, 2 + nv + draw(st.integers(1, 25))):
        steps.append((draw(st.sampled_from(["xor", "and"])),
                      draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))))
    return nv, steps


class TestAnfProperty:
    @settings(max_examples=150, deadline=None)
    @given(shared_dags())
    def test_anf_matches_truth_table_at_every_node(self, dag):
        # each node's polynomial is built from its operands' polynomials, as
        # the interpreter builds a bit; its table from theirs with int ^ and &
        nv, steps = dag
        leaves = [0, 1] + [("var", k) for k in range(1, nv + 1)]
        polys = [tree_poly(leaf) for leaf in leaves]
        tables = [truth_table(leaf, nv) for leaf in leaves]
        for op, a, b in steps:
            if op == "xor":
                polys.append(polys[a] ^ polys[b])
                tables.append(tuple(x ^ y for x, y in zip(tables[a], tables[b])))
            else:
                polys.append(and_(polys[a], polys[b]))
                tables.append(tuple(x & y for x, y in zip(tables[a], tables[b])))
        for poly, table in zip(polys, tables):
            rows = tuple(eval_poly(poly, {v + 1: bits[v] for v in range(nv)})
                         for bits in all_basis_inputs(nv))
            assert rows == table, sorted_monomials(poly)


@st.composite
def small_trees(draw):
    """A random formula tree over b1..bk for k <= 6, and k."""
    nv = draw(st.integers(1, 6))
    leaves = st.sampled_from([0, 1] + [("var", k) for k in range(1, nv + 1)])
    tree = draw(st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from(["xor", "and"]), sub, sub),
        max_leaves=24,
    ))
    return nv, tree


def mobius_anf(tree, nv: int) -> list[tuple[int, ...]]:
    """ANF from the truth table by the binary Moebius transform, as sorted index tuples."""
    table = [tree_value(tree, {k: (x >> (k - 1)) & 1 for k in range(1, nv + 1)})
             for x in range(1 << nv)]
    for k in range(nv):
        for x in range(1 << nv):
            if x >> k & 1:
                table[x] ^= table[x ^ (1 << k)]
    monos = [tuple(k + 1 for k in range(nv) if x >> k & 1) for x in range(1 << nv) if table[x]]
    return sorted(monos, key=lambda t: (len(t), t))


class TestAnfPolyOps:
    def test_xor_and_mul(self):
        p = var(1) ^ var(2)
        q = var(2) ^ var(3)
        assert p ^ q == var(1) ^ var(3)
        # (b1 ^ b2)(b2 ^ b3) = b1b2 ^ b1b3 ^ b2 ^ b2b3
        assert sorted_monomials(and_(p, q)) == [(2,), (1, 2), (1, 3), (2, 3)]

    def test_sorted_monomials_order(self):
        poly = and_(var(2), var(3)) ^ TRUE ^ var(5) ^ and_(var(9), var(1))
        assert sorted_monomials(poly) == [(), (5,), (1, 9), (2, 3)]

    @settings(max_examples=200, deadline=None)
    @given(small_trees())
    def test_matches_mobius_transform_of_truth_table(self, case):
        nv, tree = case
        assert sorted_monomials(tree_poly(tree)) == mobius_anf(tree, nv), str(tree)
