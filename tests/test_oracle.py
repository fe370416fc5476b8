import collections
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qftverify
from qftverify.abstraction import CircuitTypeError
from qftverify.boolexpr import eval_bits, target_vector
from qftverify.checker import CheckerConfig, verify_circuit
from qftverify.circuit import (
    IncorrectGateOrder,
    MissingH,
    enumerate_error_specs,
    generate_qft,
    inject_error,
)
from qftverify.oracle import (
    bit_reversed,
    cross_check,
    per_qubit_phase,
    qft_reference,
    simulate,
)
from helpers import all_basis_inputs, bits_as_int, split_rotation, substitution_sites

SQ2 = 1 / math.sqrt(2)


class TestSimulate:
    def test_single_qubit_one(self):
        state = simulate(generate_qft(1), [1])
        assert np.allclose(state, [SQ2, -SQ2], atol=1e-12)

    def test_single_qubit_zero(self):
        state = simulate(generate_qft(1), [0])
        assert np.allclose(state, [SQ2, SQ2], atol=1e-12)

    def test_three_qubit_product_phases(self):
        # each qubit's factor carries the binary-fraction phase of its tail bits
        bits = (1, 0, 1)
        state = simulate(generate_qft(3), bits)
        factors = []
        for i in (1, 2, 3):
            phase = float(per_qubit_phase(bits, i))
            factors.append(np.array([1.0, np.exp(2j * np.pi * phase)]) * SQ2)
        expected = np.kron(np.kron(factors[0], factors[1]), factors[2])
        assert np.max(np.abs(state - expected)) < 1e-12

    def test_norm_preserved_everywhere(self):
        for m in (1, 2, 4):
            c = generate_qft(m)
            for bits in all_basis_inputs(m):
                state = simulate(c, bits)
                assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-9

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            simulate(generate_qft(5), [0] * 5, cap=4)

    def test_bad_input_bits(self):
        with pytest.raises(ValueError):
            simulate(generate_qft(2), [0, 2])
        with pytest.raises(ValueError):
            simulate(generate_qft(2), [0])


class TestReference:
    def test_zero_input_uniform(self):
        assert np.allclose(qft_reference(0, 2), np.full(4, 0.5), atol=1e-12)

    def test_single_qubit_one(self):
        assert np.allclose(qft_reference(1, 1), [SQ2, -SQ2], atol=1e-12)

    def test_two_qubit_three(self):
        expected = 0.5 * np.array([1, np.exp(1.5j * np.pi), np.exp(1j * np.pi), np.exp(0.5j * np.pi)])
        assert np.allclose(qft_reference(3, 2), expected, atol=1e-12)

    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            qft_reference(4, 2)

    def test_dft_consistency_with_simulation(self):
        for m in (1, 2, 3, 5):
            c = generate_qft(m)
            for bits in all_basis_inputs(m):
                j = bits_as_int(bits)
                sim = simulate(c, bits)
                ref = bit_reversed(qft_reference(j, m), m)
                assert np.max(np.abs(sim - ref)) < 1e-9


class TestPerQubitPhase:
    def test_first_qubit(self):
        assert per_qubit_phase([1, 0, 1], 1) == Fraction(5, 8)

    def test_zero_input(self):
        assert per_qubit_phase([0, 0, 0], 1) == 0

    def test_last_qubit(self):
        assert per_qubit_phase([1, 0, 1], 3) == Fraction(1, 2)

    def test_matches_target_vector_exactly(self):
        # product-form law: the target form evaluates to the same rational
        for m in (1, 2, 4, 6):
            for bits in all_basis_inputs(m):
                sigma = {k + 1: bits[k] for k in range(m)}
                for i in range(1, m + 1):
                    value = Fraction(bits_as_int(eval_bits(target_vector(i, m), sigma)), 2 ** m)
                    assert value == per_qubit_phase(bits, i)


def _reads_control_after_its_h(c) -> bool:
    """Whether some rotation is controlled by a line that already had its H."""
    had_h = set()
    for target, n, control in zip(c.targets, c.orders, c.controls):
        if not n:
            had_h.add(target)
        elif control in had_h:
            return True
    return False


class TestCrossCheck:
    def test_canonical_three_qubits(self):
        report = cross_check(generate_qft(3))
        assert report.ok and report.canonical
        assert len(report.checks) == 8
        assert report.max_deviation < 1e-9

    def test_single_qubit_trivial(self):
        assert cross_check(generate_qft(1)).ok

    def test_faithful_abstraction_of_wrong_circuit(self):
        # the abstraction still tracks the simulation exactly, while the
        # circuit itself no longer implements the transform
        mutated = inject_error(generate_qft(3), IncorrectGateOrder(1, 1, 3))
        report = cross_check(mutated)
        assert report.abstraction_ok
        assert not report.reference_ok
        assert not report.ok

    def test_control_line_contributes_basis_factor(self):
        # last line without H stays a basis vector; fidelity still holds
        mutated = inject_error(generate_qft(3), MissingH(3))
        report = cross_check(mutated)
        assert report.abstraction_ok
        assert not report.reference_ok

    def test_mutant_sweep_abstraction_fidelity(self):
        # the abstraction reads a control at its initial bit, which a real
        # controlled phase does only while the control line has no H yet
        # (ROADMAP item 1); every other mutant is abstracted faithfully
        unfaithful = collections.Counter()
        for m in (2, 3, 4):
            base = generate_qft(m)
            for spec in enumerate_error_specs(base):
                mutated = inject_error(base, spec)
                try:
                    report = cross_check(mutated)
                except CircuitTypeError:
                    continue
                late = _reads_control_after_its_h(mutated)
                assert report.abstraction_ok != late, spec
                unfaithful[m] += late
        assert unfaithful == {2: 0, 3: 1, 4: 4}

    def test_report_json(self):
        doc = cross_check(generate_qft(2)).to_dict()
        assert doc["ok"] and doc["canonical"]
        assert len(doc["inputs"]) == 4
        assert doc["inputs"][0]["bits"] == "00"


@st.composite
def multi_error_circuits(draw):
    """A 3..6-qubit circuit after 2 or 3 mutations, each drawn from
    enumerate_error_specs of the circuit so far, and sometimes one rotation
    split.  Returns the circuit and whether a split was applied."""
    c = generate_qft(draw(st.integers(3, 6)))
    steps = ["spec"] * draw(st.integers(2, 3)) + ["split"] * draw(st.integers(0, 1))
    split = False
    for step in draw(st.permutations(steps)):
        sites = substitution_sites(c)
        if step == "spec":
            c = inject_error(c, draw(st.sampled_from(list(enumerate_error_specs(c)))))
        elif sites:
            c = split_rotation(c, draw(st.sampled_from(sites)))
            split = True
    return c, split


class TestDifferential:
    def test_multi_error_verdicts_match_dense_simulation(self):
        # no false pass and no false fail beyond single errors
        seen = collections.Counter()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(multi_error_circuits())
        def check(case):
            c, split = case
            overall = verify_circuit(c, CheckerConfig(exhaustive=True)).overall
            try:
                reference_ok = cross_check(c).reference_ok
            except CircuitTypeError:
                assert overall == "type_error"
                seen["type_error"] += 1
                return
            assert overall != "type_error"
            assert (overall == "verified") == reference_ok, overall
            seen[overall, split] += 1

        check()
        # self-cancelling pairs (verified without a split) and splits both occur
        assert seen["verified", False] and seen["verified", True]
        assert seen["violation", False] + seen["violation", True] and seen["type_error"]


def test_package_import_leaves_numpy_unloaded():
    # numpy is the oracle's alone, and it is imported on the oracle's first use
    code = (
        "import sys\n"
        "import qftverify, qftverify.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by import'\n"
        "assert qftverify.cross_check(qftverify.generate_qft(3)).ok\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = str(Path(qftverify.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)
