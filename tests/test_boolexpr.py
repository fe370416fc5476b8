import random

import pytest

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
from helpers import random_expr, truth_table


def mono(*indices):
    return frozenset(indices)


class TestInterning:
    def test_structural_sharing(self):
        assert xor(var(1), var(2)) is xor(var(2), var(1))
        assert and_(var(3), var(1)) is and_(var(1), var(3))
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
        # normalizing distinct expressions from several threads must agree
        # with the sequential results (shared tables are append-only)
        from concurrent.futures import ThreadPoolExecutor

        from qftverify.boolexpr import clear_caches

        rng = random.Random(77)
        exprs = [random_expr(rng, 8, 6) for _ in range(64)]
        clear_caches()
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(anf_normalize, exprs))
        clear_caches()
        sequential = [anf_normalize(e) for e in exprs]
        assert parallel == sequential


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
