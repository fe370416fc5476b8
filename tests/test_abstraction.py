import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qftverify.abstraction import CircuitTypeError, TypeErrorKind, group_gates_by_line
from qftverify.boolexpr import (
    FALSE,
    TRUE,
    AbstractOutputs,
    SymbolicBitVector,
    _interpret_line,
    eval_bits,
    run_abstract,
    typecheck,
    var,
)
from qftverify.circuit import (
    CircuitDescription,
    DuplicateH,
    GateInstance,
    IncorrectControl,
    MissingH,
    enumerate_error_specs,
    generate_qft,
    inject_error,
    qft_line,
)
from helpers import all_basis_inputs, bits_as_int, concrete_line_values, reference_grouping


def vec(*bits):
    return SymbolicBitVector(len(bits), tuple(bits))


def value_of(v: SymbolicBitVector, assignment) -> Fraction:
    return Fraction(bits_as_int(eval_bits(v, assignment)), 2 ** v.width)


def interpret(m, i, rotations):
    """Line i of m: its H, then ``rotations`` as (order, control) pairs."""
    return _interpret_line(m, i, ([n for n, _ in rotations], [k for _, k in rotations]))


def line_value(m, i, rotations, assignment):
    """Concrete bits of a line's final bit-vector under an input assignment."""
    return eval_bits(vec(*interpret(m, i, rotations)), assignment)


class TestAbstractH:
    def test_one_input(self):
        assert line_value(3, 2, [], {2: 1}) == (1, 0, 0)

    def test_zero_input(self):
        assert line_value(3, 2, [], {2: 0}) == (0, 0, 0)

    def test_symbolic_input(self):
        # H puts the line's own input at the half-turn bit
        assert interpret(3, 2, []) == [var(2), FALSE, FALSE]

    def test_line_without_h(self):
        assert _interpret_line(3, 2, None) is None


class TestAbstractRn:
    def test_concrete_add(self):
        # half turn plus quarter turn
        assert line_value(3, 1, [(2, 2)], {1: 1, 2: 1}) == (1, 1, 0)

    def test_control_zero_is_identity(self):
        with_r3 = [(2, 2), (3, 3)]
        for bits in all_basis_inputs(2):
            sigma = {1: bits[0], 2: bits[1], 3: 0}
            assert line_value(3, 1, with_r3, sigma) == line_value(3, 1, with_r3[:1], sigma)

    def test_symbolic_control_fills_bit(self):
        assert interpret(3, 1, [(2, 2), (3, 3)]) == [var(1), var(2), var(3)]

    def test_input_values_come_from_the_row(self):
        # one row of inputs, b1=1, b2=0, b3=1, runs the line to 0.101, as
        # integer execution of the same gates does
        rotations = [(2, 2), (3, 3)]
        c = CircuitDescription(3, (GateInstance("H", 1),
                                   *(GateInstance("R", 1, n=n, control=k) for n, k in rotations)))
        assert line_value(3, 1, rotations, {1: 1, 2: 0, 3: 1}) == (1, 0, 1)
        assert concrete_line_values(c, (1, 0, 1))[0] == bits_as_int((1, 0, 1))

    def test_order_finer_than_width_rejected(self):
        with pytest.raises(ValueError, match="rotation order 4 not representable in 3 bits"):
            interpret(3, 1, [(2, 2), (4, 3)])

    @pytest.mark.parametrize("rotations,message", [
        ([(0, 2), (2, 3)], "rotation order 0 not representable in 3 bits"),
        ([(2, 2), (3, 4)], r"control 4 out of range 1\.\.3"),
        ([(2, 0), (3, 3)], r"control 0 out of range 1\.\.3"),
    ], ids=["order-0", "control-above-m", "control-0"])
    def test_columns_out_of_range_rejected(self, rotations, message):
        # every order and control is checked before any gate runs, so no
        # index wraps around to the other end of the bits or of the row
        with pytest.raises(ValueError, match=message):
            interpret(3, 1, rotations)

    @pytest.mark.parametrize("i,line,message", [
        (0, ([], []), r"line 0 out of range 1\.\.3"),
        (4, ([], []), r"line 4 out of range 1\.\.3"),
        (1, ([2, 3], [2]), "2 orders but 1 controls"),
    ], ids=["line-0", "line-above-m", "ragged-columns"])
    def test_malformed_lines_rejected(self, i, line, message):
        with pytest.raises(ValueError, match=message):
            _interpret_line(3, i, line)


class TestAddMod:
    def test_concrete_carry(self):
        # 1/8 + 1/8 = 1/4
        assert line_value(3, 1, [(3, 2), (3, 3)], {1: 0, 2: 1, 3: 1}) == (0, 1, 0)

    def test_msb_carry_discarded(self):
        bits = interpret(3, 1, [(1, 2)])
        # b1=b2=1 gives 1/2+1/2 = 1 = 0 (mod 1): the carry out of bit 1 is gone
        assert bits == [var(1) ^ var(2), FALSE, FALSE]

    def test_carry_into_next_bit(self):
        # two eighth turns make one quarter turn, for either value of b2
        assert interpret(3, 1, [(3, 2), (3, 2)]) == [var(1), var(2), FALSE]

    def _random_rotations(self, rng, width, num_controls):
        """(order, control) pairs on line 1 with controls b2..b(num_controls+1)."""
        return [(rng.randint(1, width), rng.randint(2, num_controls + 1))
                for _ in range(rng.randint(0, 6))]

    def test_commutative_and_associative(self):
        # the order of a line's rotations does not change its function
        rng = random.Random(99)
        for _ in range(40):
            width = rng.randint(2, 8)
            rotations = self._random_rotations(rng, width, rng.randint(1, min(5, width - 1)))
            shuffled = rotations[:]
            rng.shuffle(shuffled)
            assert interpret(width, 1, rotations) == interpret(width, 1, shuffled)

    def test_modulo_law_against_fractions(self):
        rng = random.Random(7)
        for _ in range(40):
            width = rng.randint(2, 8)
            nc = rng.randint(1, min(5, width - 1))
            rotations = self._random_rotations(rng, width, nc)
            out = vec(*interpret(width, 1, rotations))
            for bits in all_basis_inputs(nc + 1):
                sigma = {k + 1: bits[k] for k in range(nc + 1)}
                expect = Fraction(sigma[1], 2)
                for n, control in rotations:
                    expect += Fraction(sigma[control], 2 ** n)
                assert value_of(out, sigma) == expect % 1


def h_ordinals(c: CircuitDescription) -> list[int | None]:
    """Each line's first H by 1-based program position, or None."""
    first: list[int | None] = [None] * c.m
    for ordinal, g in enumerate(c.gates, start=1):
        if g.kind == "H" and first[g.target - 1] is None:
            first[g.target - 1] = ordinal
    return first


class TestTypecheck:
    def test_generated_circuits_are_well_typed(self):
        c = generate_qft(4)
        assert typecheck(c) is None
        assert h_ordinals(c) == [1, 5, 8, 10]
        # each line's columns are its rotations, in the closed form
        assert group_gates_by_line(c) == [qft_line(4, i) for i in range(1, 5)]
        orders, controls = group_gates_by_line(c)[0]
        assert (orders.tolist(), controls.tolist()) == ([2, 3, 4], [2, 3, 4])

    def test_missing_h_flags_first_rotation(self):
        mutated = inject_error(generate_qft(3), MissingH(2))
        with pytest.raises(CircuitTypeError) as info:
            typecheck(mutated)
        assert info.value.kind == TypeErrorKind.RN_DATA_PORT_GOT_CONTROL
        assert info.value.line == 2
        assert info.value.gate_ordinal == 4  # the rotation targeting line 2

    def test_duplicate_h_flags_second_h(self):
        mutated = inject_error(generate_qft(3), DuplicateH(1))
        with pytest.raises(CircuitTypeError) as info:
            typecheck(mutated)
        assert info.value.kind == TypeErrorKind.DUPLICATE_H
        assert info.value.line == 1
        assert info.value.gate_ordinal == 2

    def test_h_after_rotation_is_data_wire_error(self):
        gates = (
            GateInstance("H", 1),
            GateInstance("R", 1, n=2, control=2),
            GateInstance("H", 1),
            GateInstance("H", 2),
        )
        with pytest.raises(CircuitTypeError) as info:
            typecheck(CircuitDescription(2, gates))
        assert info.value.kind == TypeErrorKind.H_ON_DATA_WIRE
        assert info.value.gate_ordinal == 3

    def test_line_without_any_gates_passes(self):
        # a bare line is not a type error; the property checker reports it
        c = CircuitDescription(2, (GateInstance("H", 1),))
        assert typecheck(c) is None
        (orders, controls), unrotated = group_gates_by_line(c)
        assert (orders.tolist(), controls.tolist(), unrotated) == ([], [], None)

    def test_grouping_walk_types_like_typecheck(self):
        base = generate_qft(4)
        for spec in enumerate_error_specs(base):
            c = inject_error(base, spec)
            try:
                typecheck(c)
            except CircuitTypeError as exc:
                with pytest.raises(CircuitTypeError) as info:
                    group_gates_by_line(c)
                assert (info.value.kind, info.value.line, info.value.gate_ordinal) \
                    == (exc.kind, exc.line, exc.gate_ordinal)
                continue
            for line, (columns, h) in enumerate(zip(group_gates_by_line(c), h_ordinals(c)), 1):
                # a typed line is None exactly when it has no H, which comes
                # before all of its rotations
                assert (h is None) == (columns is None)
                rotations = [(g.n, g.control) for g in c.gates if g.kind == "R" and g.target == line]
                assert rotations == ([] if columns is None else list(zip(*columns)))
                assert all(k > h for k, g in enumerate(c.gates, 1) if g.target == line and g.kind == "R")


def grouping_outcome(group, c: CircuitDescription):
    """What ``group`` makes of a circuit: ("lines", each line's columns as
    lists, or None) or ("error", kind, line, gate ordinal, message)."""
    try:
        lines = group(c)
    except CircuitTypeError as exc:
        return ("error", exc.kind, exc.line, exc.gate_ordinal, str(exc))
    return ("lines", [None if line is None else (list(line[0]), list(line[1])) for line in lines])


@st.composite
def rearranged_qft(draw):
    """generate_qft(m) at m <= 7 after one to three rearrangements (all gates
    shuffled, one gate moved to another position, or a rotation's target and
    control swapped), or after two injected errors."""
    m = draw(st.integers(1, 7))
    c = generate_qft(m)
    if draw(st.booleans()):
        for _ in range(2):
            specs = list(enumerate_error_specs(c))
            if specs:
                c = inject_error(c, draw(st.sampled_from(specs)))
        return c
    gates = list(zip(c.targets, c.orders, c.controls))
    for how in draw(st.lists(st.sampled_from(("shuffle", "move", "swap")), min_size=1, max_size=3)):
        if how == "shuffle":
            gates = draw(st.permutations(gates))
        elif how == "move":
            gate = gates.pop(draw(st.integers(0, len(gates) - 1)))
            gates.insert(draw(st.integers(0, len(gates))), gate)
        elif m > 1:
            k = draw(st.sampled_from([k for k, (_, n, _) in enumerate(gates) if n]))
            target, n, control = gates[k]
            gates[k] = (control, n, target)
    return CircuitDescription._from_columns(m, *zip(*gates))


class TestRunGrouping:
    # the run grouping must give the lines, or the first error, of a walk
    # gate by gate in program order (helpers.reference_grouping)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_single_mutant_agrees_with_the_gate_walk(self, m):
        base = generate_qft(m)
        seen = set()
        for c in [base, *(inject_error(base, spec) for spec in enumerate_error_specs(base))]:
            want = grouping_outcome(reference_grouping, c)
            assert grouping_outcome(group_gates_by_line, c) == want
            seen.add(want[1] if want[0] == "error" else "lines")
        assert seen == ({"lines", *TypeErrorKind} if m > 1 else {"lines", TypeErrorKind.DUPLICATE_H})

    def test_rearranged_circuits_agree_with_the_gate_walk(self):
        seen = set()

        @settings(max_examples=1500, deadline=None, derandomize=True)
        @given(rearranged_qft())
        def check(c):
            want = grouping_outcome(reference_grouping, c)
            assert grouping_outcome(group_gates_by_line, c) == want
            seen.add(want[1] if want[0] == "error" else "lines")

        check()
        assert seen == {"lines", *TypeErrorKind}

    # tracemalloc peak of group_gates_by_line(generate_qft(1024)): 32.7 MiB
    # with each line as two lists of ints, 2.2 MiB with array slices.
    PEAK_BYTES = 8 << 20

    def test_lines_of_the_textbook_circuit_take_little_memory(self):
        c = generate_qft(1024)
        tracemalloc.start()
        try:
            lines = group_gates_by_line(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BYTES
        assert lines[0] == qft_line(1024, 1) and lines[-1] == qft_line(1024, 1024)


class TestRunAbstract:
    def test_three_qubit_outputs(self):
        outs = run_abstract(generate_qft(3))
        assert outs.qubit(1) == vec(var(1), var(2), var(3))
        assert outs.qubit(2) == vec(var(2), var(3), FALSE)
        assert outs.qubit(3) == vec(var(3), FALSE, FALSE)

    def test_wrong_control_repeats_variable(self):
        mutated = inject_error(generate_qft(3), IncorrectControl(target=1, ordinal=2, wrong_control=2))
        outs = run_abstract(mutated)
        assert outs.qubit(1) == vec(var(1), var(2), var(2))

    def test_duplicate_h_propagates_type_error(self):
        mutated = inject_error(generate_qft(3), DuplicateH(2))
        with pytest.raises(CircuitTypeError) as info:
            run_abstract(mutated)
        assert info.value.kind == TypeErrorKind.DUPLICATE_H

    def test_bare_line_stays_control(self):
        outs = run_abstract(CircuitDescription(2, (GateInstance("H", 1),)))
        assert outs.qubit(2) is None

    @pytest.mark.parametrize("m", [8, 33, 64])
    def test_generated_outputs_are_syntactically_canonical(self, m):
        outs = run_abstract(generate_qft(m))
        for i in range(1, m + 1):
            bits = outs.qubit(i).bits
            for p in range(1, m + 1):
                if p <= m - i + 1:
                    assert bits[p - 1] is var(i + p - 1)
                else:
                    assert bits[p - 1] is FALSE

    def test_eval_commutes_with_concrete_execution(self):
        rng = random.Random(2024)
        from qftverify.circuit import enumerate_error_specs, inject_error as inject

        for m in (2, 3, 5, 8, 16):
            base = generate_qft(m)
            circuits = [base]
            specs = list(enumerate_error_specs(base))
            rng.shuffle(specs)
            for spec in specs[:6]:
                circuits.append(inject(base, spec))
            for c in circuits:
                try:
                    outs = run_abstract(c)
                except CircuitTypeError:
                    continue
                for _ in range(8):
                    bits = tuple(rng.randint(0, 1) for _ in range(m))
                    sigma = {k + 1: bits[k] for k in range(m)}
                    concrete = concrete_line_values(c, bits)
                    for i in range(1, m + 1):
                        vec_i = outs.qubit(i)
                        if vec_i is None:
                            assert concrete[i - 1] is None
                        else:
                            assert bits_as_int(eval_bits(vec_i, sigma)) == concrete[i - 1]


class TestEvalBits:
    def test_substitution(self):
        v = vec(var(1), var(2), var(3))
        assert eval_bits(v, {1: 1, 2: 0, 3: 1}) == (1, 0, 1)

    def test_constant_vector(self):
        assert eval_bits(vec(FALSE, FALSE, FALSE), {1: 1, 2: 1, 3: 1}) == (0, 0, 0)
        assert eval_bits(vec(TRUE, FALSE), {1: 0, 2: 0}) == (1, 0)

    def test_qubit_two_of_three(self):
        outs = run_abstract(generate_qft(3))
        assert eval_bits(outs.qubit(2), {1: 0, 2: 1, 3: 1}) == (1, 1, 0)

    def test_unassigned_variable(self):
        with pytest.raises(ValueError, match="unassigned"):
            eval_bits(vec(var(1), var(2)), {1: 1})


class TestAbstractOutputs:
    def test_index_bounds(self):
        outs = run_abstract(generate_qft(2))
        with pytest.raises(IndexError):
            outs.qubit(0)
        with pytest.raises(IndexError):
            outs.qubit(3)
        assert isinstance(outs, AbstractOutputs)
