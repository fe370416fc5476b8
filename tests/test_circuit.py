import os
import subprocess
import sys
from pathlib import Path

import pytest

import qftverify
from qftverify.circuit import (
    CircuitDescription,
    CircuitError,
    CircuitParseError,
    DuplicateH,
    ErrorInjectionError,
    GateInstance,
    IncorrectControl,
    IncorrectGateOrder,
    MissingH,
    WrongHInput,
    WrongRnDataInput,
    enumerate_error_specs,
    generate_qft,
    inject_error,
    iter_qft_gates,
    parse_circuit,
    parse_error_spec,
    qft_gate_count,
    serialize_circuit,
)

GOLDEN_QFT3 = """\
{"qubits": 3, "gates": [
{"kind": "H", "target": 1},
{"kind": "R", "n": 2, "target": 1, "control": 2},
{"kind": "R", "n": 3, "target": 1, "control": 3},
{"kind": "H", "target": 2},
{"kind": "R", "n": 2, "target": 2, "control": 3},
{"kind": "H", "target": 3}
]}
"""


class TestGenerator:
    def test_three_qubit_layout(self):
        c = generate_qft(3)
        assert c.gates == (
            GateInstance("H", 1),
            GateInstance("R", 1, n=2, control=2),
            GateInstance("R", 1, n=3, control=3),
            GateInstance("H", 2),
            GateInstance("R", 2, n=2, control=3),
            GateInstance("H", 3),
        )

    def test_single_qubit(self):
        assert generate_qft(1).gates == (GateInstance("H", 1),)

    def test_sixteen_qubits_has_136_gates(self):
        assert generate_qft(16).gate_count == 136

    def test_gate_count_formula_exhaustive(self):
        for m in range(1, 257):
            assert qft_gate_count(m) == m * (m + 1) // 2
            assert sum(1 for _ in iter_qft_gates(m)) == qft_gate_count(m)

    def test_materialized_matches_stream(self):
        for m in (1, 2, 5, 12):
            assert generate_qft(m).gates == tuple(iter_qft_gates(m))

    def test_controls_fire_before_their_h(self):
        c = generate_qft(6)
        h_position = {g.target: k for k, g in enumerate(c.gates) if g.kind == "H"}
        for k, g in enumerate(c.gates):
            if g.kind == "R":
                assert k < h_position[g.control]

    def test_invalid_m(self):
        with pytest.raises(CircuitError):
            generate_qft(0)


class TestGateValidation:
    def test_h_with_control_rejected(self):
        with pytest.raises(CircuitError):
            GateInstance("H", 1, control=2)

    def test_r_needs_control(self):
        with pytest.raises(CircuitError):
            GateInstance("R", 1, n=2)

    def test_control_equals_target(self):
        with pytest.raises(CircuitError, match="control equals target"):
            GateInstance("R", 1, n=2, control=1)

    def test_rotation_order_at_least_one(self):
        with pytest.raises(CircuitError):
            GateInstance("R", 1, n=0, control=2)
        # order 1 (half turn) is legal even though the generator never emits it
        GateInstance("R", 1, n=1, control=2)

    def test_circuit_range_checks(self):
        with pytest.raises(CircuitError, match="m must be >= 1"):
            CircuitDescription(0, ())
        with pytest.raises(CircuitError, match="out of range"):
            CircuitDescription(2, (GateInstance("H", 3),))
        with pytest.raises(CircuitError, match="exceeds qubit count"):
            CircuitDescription(2, (GateInstance("R", 1, n=3, control=2),))


class TestInjector:
    def test_gate_order_example(self):
        c = generate_qft(3)
        mutated = inject_error(c, IncorrectGateOrder(target=1, ordinal=1, wrong_n=3))
        assert mutated.gates[1] == GateInstance("R", 1, n=3, control=2)
        # only that gate changed
        assert [a == b for a, b in zip(c.gates, mutated.gates)] == [True, False, True, True, True, True]

    def test_missing_h_example(self):
        mutated = inject_error(generate_qft(3), MissingH(2))
        assert mutated.gate_count == 5
        assert all(not (g.kind == "H" and g.target == 2) for g in mutated.gates)

    def test_incorrect_control_example(self):
        mutated = inject_error(generate_qft(3), IncorrectControl(target=1, ordinal=2, wrong_control=2))
        assert mutated.gates[2] == GateInstance("R", 1, n=3, control=2)

    def test_duplicate_h_inserts_adjacent(self):
        mutated = inject_error(generate_qft(3), DuplicateH(2))
        kinds = [(g.kind, g.target) for g in mutated.gates]
        assert kinds.count(("H", 2)) == 2
        first = kinds.index(("H", 2))
        assert kinds[first + 1] == ("H", 2)

    def test_wrong_h_input_retargets(self):
        mutated = inject_error(generate_qft(3), WrongHInput(target=1, wrong_source=3))
        assert mutated.gates[0] == GateInstance("H", 3)

    def test_wrong_rn_data_input_retargets(self):
        mutated = inject_error(generate_qft(3), WrongRnDataInput(target=1, ordinal=1, wrong_source=3))
        assert mutated.gates[1] == GateInstance("R", 3, n=2, control=2)

    def test_input_is_unmodified(self):
        c = generate_qft(4)
        before = c.gates
        inject_error(c, MissingH(1))
        inject_error(c, IncorrectGateOrder(1, 1, 4))
        assert c.gates == before

    def test_noop_mutations_rejected(self):
        c = generate_qft(3)
        with pytest.raises(ErrorInjectionError, match="no-op"):
            inject_error(c, IncorrectGateOrder(target=1, ordinal=1, wrong_n=2))
        with pytest.raises(ErrorInjectionError, match="no-op"):
            inject_error(c, IncorrectControl(target=1, ordinal=1, wrong_control=2))
        with pytest.raises(ErrorInjectionError, match="no-op"):
            inject_error(c, WrongHInput(target=2, wrong_source=2))

    def test_out_of_range_rejected(self):
        c = generate_qft(3)
        with pytest.raises(ErrorInjectionError, match="out of range"):
            inject_error(c, MissingH(4))
        with pytest.raises(ErrorInjectionError, match="ordinal"):
            inject_error(c, IncorrectGateOrder(target=3, ordinal=1, wrong_n=2))
        with pytest.raises(ErrorInjectionError, match="out of range"):
            inject_error(c, IncorrectGateOrder(target=1, ordinal=1, wrong_n=4))

    @pytest.mark.parametrize("spec", [
        IncorrectControl(target=1, ordinal=1, wrong_control=0),
        IncorrectControl(target=1, ordinal=1, wrong_control=4),
        IncorrectControl(target=1, ordinal=1, wrong_control=1),
        WrongHInput(target=1, wrong_source=0),
        WrongHInput(target=1, wrong_source=4),
        WrongRnDataInput(target=1, ordinal=1, wrong_source=0),
        WrongRnDataInput(target=1, ordinal=1, wrong_source=4),
    ])
    def test_gates_the_constructors_reject(self, spec):
        # the gate and circuit rules live in the constructors; the injector
        # reports their refusal as its own
        with pytest.raises(ErrorInjectionError):
            inject_error(generate_qft(3), spec)

    def test_retarget_onto_control_rejected(self):
        # moving the rotation to its own control line would be control == target
        c = generate_qft(3)
        with pytest.raises(ErrorInjectionError):
            inject_error(c, WrongRnDataInput(target=1, ordinal=1, wrong_source=2))

    def test_compose_sequentially(self):
        c = generate_qft(4)
        c = inject_error(c, IncorrectGateOrder(target=1, ordinal=1, wrong_n=3))
        c = inject_error(c, MissingH(3))
        assert c.gate_count == qft_gate_count(4) - 1


class TestEnumeration:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_all_enumerated_specs_inject(self, m):
        c = generate_qft(m)
        specs = list(enumerate_error_specs(c))
        assert len(specs) == len(set(specs))
        for spec in specs:
            mutated = inject_error(c, spec)
            assert mutated != c

    def test_counts_small(self):
        # m=3: 3 rotations * (2 wrong-n + 1 wrong-control + 1 wrong-source)
        # + 3 lines * (missing + duplicate + 2 wrong-h-sources)
        specs = list(enumerate_error_specs(generate_qft(3)))
        assert len(specs) == 3 * 4 + 3 * 4


class TestSpecTextForm:
    @pytest.mark.parametrize("text,expected", [
        ("incorrect-gate:target=1,ordinal=1,wrong-n=3", IncorrectGateOrder(1, 1, 3)),
        ("incorrect-control:target=1,ordinal=2,wrong-control=2", IncorrectControl(1, 2, 2)),
        ("missing-h:target=2", MissingH(2)),
        ("duplicate-h:target=1", DuplicateH(1)),
        ("wrong-h-input:target=2,wrong-source=3", WrongHInput(2, 3)),
        ("wrong-rn-data-input:target=1,ordinal=1,wrong-source=3", WrongRnDataInput(1, 1, 3)),
    ])
    def test_round_trip(self, text, expected):
        spec = parse_error_spec(text)
        assert spec == expected

    def test_bad_kind(self):
        with pytest.raises(CircuitError, match="unknown error kind"):
            parse_error_spec("gate-flip:target=1")

    def test_missing_field(self):
        with pytest.raises(CircuitError, match="missing fields"):
            parse_error_spec("incorrect-gate:target=1")

    def test_repeated_field(self):
        # a typo must not silently mutate another line
        with pytest.raises(CircuitError, match="'target' is given twice"):
            parse_error_spec("incorrect-gate:target=1,target=2,ordinal=1,wrong-n=3")


class TestFiles:
    def test_golden_serialization(self):
        assert serialize_circuit(generate_qft(3)) == GOLDEN_QFT3

    def test_round_trip_generated(self):
        for m in (1, 2, 5, 9):
            c = generate_qft(m)
            assert parse_circuit(serialize_circuit(c)) == c

    def test_round_trip_mutated(self):
        c = generate_qft(4)
        for spec in enumerate_error_specs(c):
            mutated = inject_error(c, spec)
            assert parse_circuit(serialize_circuit(mutated)) == mutated

    def test_serializer_does_not_validate_semantics(self):
        # two H gates on one line survive a round trip in order
        doubled = inject_error(generate_qft(3), DuplicateH(2))
        text = serialize_circuit(doubled)
        assert text.count('{"kind": "H", "target": 2}') == 2
        assert parse_circuit(text) == doubled

    def test_parse_single_qubit(self):
        c = parse_circuit('{"qubits": 1, "gates": [{"kind": "H", "target": 1}]}')
        assert c == generate_qft(1)

    def test_syntax_error_has_location(self):
        with pytest.raises(CircuitParseError, match=r"line \d+, column \d+"):
            parse_circuit('{"qubits": 3, "gates": [}')

    def test_control_equals_target_reports_ordinal(self):
        text = '{"qubits": 2, "gates": [{"kind":"R","n":2,"target":1,"control":1}]}'
        with pytest.raises(CircuitParseError, match="gate 1: control equals target"):
            parse_circuit(text)

    def test_zero_qubits_rejected(self):
        with pytest.raises(CircuitParseError, match="m must be >= 1"):
            parse_circuit('{"qubits": 0, "gates": []}')

    def test_unknown_gate_fields_rejected(self):
        with pytest.raises(CircuitParseError, match="unexpected fields"):
            parse_circuit('{"qubits": 1, "gates": [{"kind": "H", "target": 1, "n": 2}]}')

    def test_non_integer_field_rejected(self):
        with pytest.raises(CircuitParseError, match="must be an integer"):
            parse_circuit('{"qubits": 1, "gates": [{"kind": "H", "target": "1"}]}')

    @pytest.mark.parametrize("text,match", [
        ('{"qubits": 1, "gates": [{"kind": ["H"], "target": 1}]}', 'gate 1: kind must be "H" or "R"'),
        ('{"qubits": 1, "gates": [{"kind": {}, "target": 1}]}', 'gate 1: kind must be "H" or "R"'),
        ("[" * 200_000 + "]" * 200_000, "recursion"),
        ('{"qubits": %s, "gates": []}' % ("9" * 5000), "digits"),
    ], ids=["list-kind", "object-kind", "deep-nesting", "oversized-integer"])
    def test_hostile_text_is_parse_error(self, text, match):
        with pytest.raises(CircuitParseError, match=match):
            parse_circuit(text)

    def test_field_errors_reported_in_a_fixed_order(self):
        # three bad fields: the one named must not depend on string hashing
        code = (
            "from qftverify.circuit import parse_circuit\n"
            "try:\n"
            "    parse_circuit('{\"qubits\": 2, \"gates\": [{\"kind\": \"R\", "
            "\"n\": \"a\", \"target\": \"b\", \"control\": \"c\"}]}')\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(qftverify.__file__).resolve().parents[1])
        messages = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, check=True)
            messages.add(run.stdout.strip())
        assert messages == {"gate 1: field 'n' must be an integer"}
