import random

import pytest
from hypothesis import given, settings, strategies as st

from qftverify.boolexpr import (
    AnfBudgetError,
    FALSE,
    TRUE,
    and_,
    anf_normalize,
    evaluate,
    sorted_monomials,
    var,
    xor,
)
from qftverify.checker import find_counterexample
from helpers import all_basis_inputs, eval_poly, random_expr, truth_table


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
        assert not anf_normalize(xor(var(1), var(1)))
        # two distinct nodes for the same function, which xor cannot merge locally
        assert not anf_normalize(xor(xor(var(1), var(2)), xor(var(2), var(1))))

    def test_absorption_to_zero(self):
        # b1 & (1 ^ b1) expands to b1 ^ b1*b1 = b1 ^ b1 = 0
        assert not anf_normalize(and_(var(1), xor(TRUE, var(1))))

    def test_idempotent_product(self):
        # (b & x) & (b & x) at the same position keeps the single monomial
        prod = and_(var(1), var(2))
        assert sorted_monomials(anf_normalize(and_(prod, and_(var(2), var(1))))) == [(1, 2)]

    def test_constants(self):
        assert not anf_normalize(FALSE)
        assert sorted_monomials(anf_normalize(TRUE)) == [()]
        assert sorted_monomials(anf_normalize(var(4))) == [(4,)]

    def test_idempotent(self):
        e = xor(and_(var(1), var(2)), var(3))
        assert anf_normalize(e) == anf_normalize(e)

    def test_result_is_the_node_slot(self):
        e = xor(and_(var(1), var(2)), var(3))
        assert anf_normalize(e) is e.anf
        assert anf_normalize(TRUE) is TRUE.anf

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
                assert eval_poly(poly, assignment) == evaluate(e, assignment)

    def test_budget_overflow(self):
        # Product of (1 ^ b_i) terms has 2**k monomials.
        e = TRUE
        for k in range(1, 13):
            e = and_(e, xor(TRUE, var(k)))
        with pytest.raises(AnfBudgetError):
            anf_normalize(e, budget=100)

    def test_monomials_are_sorted(self):
        poly = anf_normalize(xor(and_(var(2), var(1)), xor(var(3), TRUE)))
        assert sorted_monomials(poly) == [(), (3,), (1, 2)]

    def test_wide_indices(self):
        poly = anf_normalize(and_(var(1), var(10_000)))
        assert sorted_monomials(poly) == [(1, 10_000)]
        assignment = find_counterexample(poly, 10_000)
        assert len(assignment) == 10_000
        assert [k for k, v in assignment.items() if v] == [1, 10_000]


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
            rows = tuple(eval_poly(polys[k], {v + 1: bits[v] for v in range(nv)})
                         for bits in all_basis_inputs(nv))
            assert rows == truth_table(node, nv), str(node)


@st.composite
def small_exprs(draw):
    """A random expression over b1..bk for k <= 6, and k."""
    nv = draw(st.integers(1, 6))
    leaves = st.sampled_from([FALSE, TRUE] + [var(k) for k in range(1, nv + 1)])
    expr = draw(st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from([xor, and_]), sub, sub).map(lambda t: t[0](t[1], t[2])),
        max_leaves=24,
    ))
    return nv, expr


def mobius_anf(expr, nv: int) -> list[tuple[int, ...]]:
    """ANF from the truth table by the binary Moebius transform, as sorted index tuples."""
    table = [evaluate(expr, {k: (x >> (k - 1)) & 1 for k in range(1, nv + 1)})
             for x in range(1 << nv)]
    for k in range(nv):
        for x in range(1 << nv):
            if x >> k & 1:
                table[x] ^= table[x ^ (1 << k)]
    monos = [tuple(k + 1 for k in range(nv) if x >> k & 1) for x in range(1 << nv) if table[x]]
    return sorted(monos, key=lambda t: (len(t), t))


class TestAnfPolyOps:
    def test_xor_and_mul(self):
        p = xor(var(1), var(2))
        q = xor(var(2), var(3))
        assert anf_normalize(p) ^ anf_normalize(q) == anf_normalize(xor(var(1), var(3)))
        # (b1 ^ b2)(b2 ^ b3) = b1b2 ^ b1b3 ^ b2 ^ b2b3
        assert sorted_monomials(anf_normalize(and_(p, q))) == [(2,), (1, 2), (1, 3), (2, 3)]

    def test_sorted_monomials_order(self):
        e = xor(xor(and_(var(2), var(3)), TRUE), xor(var(5), and_(var(9), var(1))))
        assert sorted_monomials(anf_normalize(e)) == [(), (5,), (1, 9), (2, 3)]

    @settings(max_examples=200, deadline=None)
    @given(small_exprs())
    def test_matches_mobius_transform_of_truth_table(self, case):
        nv, expr = case
        assert sorted_monomials(anf_normalize(expr)) == mobius_anf(expr, nv), str(expr)
