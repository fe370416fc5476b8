import random

import pytest
from hypothesis import given, settings, strategies as st

from qftverify.boolexpr import (
    ANFPoly,
    AnfBudgetError,
    FALSE,
    TRUE,
    and_,
    anf_normalize,
    evaluate,
    var,
    xor,
)
from helpers import all_basis_inputs, random_expr, truth_table


def mono(*indices):
    return frozenset(indices)


class TestInterning:
    def test_structural_sharing(self):
        assert var(7) is var(7)

    def test_local_simplification(self):
        b1 = var(1)
        assert xor(b1, FALSE) is b1
        assert xor(b1, b1) is FALSE
        assert and_(b1, FALSE) is FALSE
        assert and_(b1, TRUE) is b1
        assert and_(b1, b1) is b1
        assert xor(FALSE, FALSE) is FALSE
        assert xor(TRUE, TRUE) is FALSE

    def test_var_index_validation(self):
        with pytest.raises(ValueError):
            var(0)


class TestEvaluate:
    def test_basic(self):
        e = xor(var(1), and_(var(2), var(3)))
        assert evaluate(e, {1: 1, 2: 1, 3: 0}) == 1
        assert evaluate(e, {1: 1, 2: 1, 3: 1}) == 0

    def test_unassigned_variable(self):
        with pytest.raises(ValueError, match="b2"):
            evaluate(xor(var(1), var(2)), {1: 0})

    def test_deep_chain_is_iterative(self):
        e = var(1)
        for k in range(2, 5002):
            e = and_(e, var(k))
        assignment = {k: 1 for k in range(1, 5002)}
        assert evaluate(e, assignment) == 1
        assignment[3000] = 0
        assert evaluate(e, assignment) == 0


class TestAnf:
    def test_xor_self_cancels(self):
        assert anf_normalize(xor(var(1), var(1))).is_zero()

    def test_absorption_to_zero(self):
        # b1 & (1 ^ b1) expands to b1 ^ b1*b1 = b1 ^ b1 = 0
        assert anf_normalize(and_(var(1), xor(TRUE, var(1)))).is_zero()

    def test_idempotent_product(self):
        # (b & x) & (b & x) at the same position keeps the single monomial
        prod = and_(var(1), var(2))
        assert anf_normalize(and_(prod, prod)) == ANFPoly(frozenset({mono(1, 2)}))

    def test_constants(self):
        assert anf_normalize(FALSE).is_zero()
        assert anf_normalize(TRUE).is_one()
        assert anf_normalize(var(4)) == ANFPoly(frozenset({mono(4)}))

    def test_idempotent(self):
        e = xor(and_(var(1), var(2)), var(3))
        assert anf_normalize(e) == anf_normalize(e)

    def test_canonicity_random(self):
        # Equal normal forms exactly when brute-force truth tables agree.
        rng = random.Random(1318)
        for _ in range(300):
            nv = rng.randint(1, 10)
            e1 = random_expr(rng, nv, 5)
            e2 = random_expr(rng, nv, 5)
            same_table = truth_table(e1, nv) == truth_table(e2, nv)
            same_anf = anf_normalize(e1) == anf_normalize(e2)
            assert same_table == same_anf, f"{e1} vs {e2}"

    def test_anf_evaluate_matches_expr(self):
        rng = random.Random(4)
        for _ in range(100):
            nv = rng.randint(1, 8)
            e = random_expr(rng, nv, 5)
            poly = anf_normalize(e)
            for bits in [(0,) * nv, (1,) * nv]:
                assignment = {k + 1: bits[k] for k in range(nv)}
                assert poly.evaluate(assignment) == evaluate(e, assignment)

    def test_budget_overflow(self):
        # Product of (1 ^ b_i) terms has 2**k monomials.
        e = TRUE
        for k in range(1, 13):
            e = and_(e, xor(TRUE, var(k)))
        with pytest.raises(AnfBudgetError):
            anf_normalize(e, budget=100)

    def test_str_is_sorted(self):
        poly = anf_normalize(xor(and_(var(2), var(1)), xor(var(3), TRUE)))
        assert str(poly) == "1 ^ b3 ^ b1*b2"


class TestConcurrency:
    def test_parallel_normalization_is_deterministic(self):
        # threads normalizing expressions that share subterms (and so write
        # the same nodes' memos) agree with a sequential pass over fresh
        # copies built from the same seed
        from concurrent.futures import ThreadPoolExecutor

        def build():
            rng = random.Random(77)
            base = [random_expr(rng, 8, 6) for _ in range(16)]
            return [(xor if rng.random() < 0.5 else and_)(rng.choice(base), rng.choice(base))
                    for _ in range(64)]

        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(anf_normalize, build()))
        sequential = [anf_normalize(e) for e in build()]
        assert parallel == sequential


@st.composite
def shared_dags(draw):
    """A random DAG over b1..bk whose nodes reuse earlier nodes as operands,
    with a random order in which to normalize them."""
    nv = draw(st.integers(1, 6))
    nodes = [FALSE, TRUE] + [var(k) for k in range(1, nv + 1)]
    for _ in range(draw(st.integers(1, 25))):
        left = nodes[draw(st.integers(0, len(nodes) - 1))]
        right = nodes[draw(st.integers(0, len(nodes) - 1))]
        nodes.append((xor if draw(st.booleans()) else and_)(left, right))
    order = draw(st.permutations(range(len(nodes))))
    return nv, nodes, order


class TestAnfProperty:
    @settings(max_examples=150, deadline=None)
    @given(shared_dags())
    def test_anf_matches_truth_table_at_every_node(self, dag):
        nv, nodes, order = dag
        polys = {k: anf_normalize(nodes[k]) for k in order}
        for k, node in enumerate(nodes):
            rows = tuple(polys[k].evaluate({v + 1: bits[v] for v in range(nv)})
                         for bits in all_basis_inputs(nv))
            assert rows == truth_table(node, nv), str(node)


class TestAnfPolyOps:
    def test_xor_and_mul(self):
        p = ANFPoly(frozenset({mono(1), mono(2)}))
        q = ANFPoly(frozenset({mono(2), mono(3)}))
        assert (p ^ q) == ANFPoly(frozenset({mono(1), mono(3)}))
        # (b1 ^ b2)(b2 ^ b3) = b1b2 ^ b1b3 ^ b2 ^ b2b3
        assert p.mul(q, budget=100) == ANFPoly(frozenset({mono(1, 2), mono(1, 3), mono(2), mono(2, 3)}))

    def test_sorted_monomials_order(self):
        p = ANFPoly(frozenset({mono(2, 3), mono(), mono(5), mono(1, 9)}))
        assert p.sorted_monomials() == [(), (5,), (1, 9), (2, 3)]
