import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import qftverify
from qftverify import circuit as circuit_mod
from qftverify import cli
from qftverify.bench import BenchConfig, run_bench
from qftverify.checker import verify_circuit
from qftverify.smt import write_obligations
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
    write_circuit,
)
from helpers import reference_serialize

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
        with pytest.raises(CircuitError, match="m must be >= 1"):
            iter_qft_gates(0)

    def test_columns(self):
        # program order; an H is order 0 and control 0
        c = generate_qft(3)
        assert c.targets == array("B", [1, 1, 1, 2, 2, 3])
        assert c.orders == array("B", [0, 2, 3, 0, 2, 0])
        assert c.controls == array("B", [0, 2, 3, 0, 3, 0])
        same = parse_circuit(serialize_circuit(c))
        assert same == c and hash(same) == hash(c)
        assert c != inject_error(c, IncorrectGateOrder(1, 1, 3))

    @pytest.mark.parametrize("m,typecode", [(1, "B"), (255, "B"), (256, "H"), (65_535, "H"),
                                            (65_536, "I"), (2 ** 32, "Q"), (2 ** 64 - 1, "Q")])
    def test_columns_take_the_narrowest_type_that_holds_m(self, m, typecode):
        c = CircuitDescription(m, (GateInstance("H", m),))
        assert {c.targets.typecode, c.orders.typecode, c.controls.typecode} == {typecode}
        assert c.gates == (GateInstance("H", m),)


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

    @pytest.mark.parametrize("fields,name", [
        (dict(kind="R", target=1, n=2.5, control=2), "n"),
        (dict(kind="R", target=1, n=True, control=2), "n"),
        (dict(kind="R", target=1, n=2, control=2.0), "control"),
        (dict(kind="R", target="1", n=2, control=2), "target"),
        (dict(kind="H", target=1.0), "target"),
        (dict(kind="H", target=True), "target"),
    ])
    def test_non_integer_fields_rejected(self, fields, name):
        with pytest.raises(CircuitError, match=f"field '{name}' must be an integer"):
            GateInstance(**fields)

    @pytest.mark.parametrize("m", [2.5, True, "2", None])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(CircuitError, match="m must be an integer"):
            CircuitDescription(m, (GateInstance("H", 1),))
        with pytest.raises(CircuitError, match="m must be an integer"):
            qft_gate_count(m)
        with pytest.raises(CircuitError, match="m must be an integer"):
            iter_qft_gates(m)

    def test_m_past_every_column_type_rejected(self):
        with pytest.raises(CircuitError, match=r"m must be below 2\*\*64"):
            CircuitDescription(2 ** 64, ())
        with pytest.raises(CircuitParseError, match=r"m must be below 2\*\*64"):
            parse_circuit('{"qubits": %d, "gates": [{"kind": "H", "target": 1}]}' % 2 ** 64)

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

    @pytest.mark.parametrize("spec", [
        IncorrectGateOrder(target=1, ordinal=1, wrong_n=2.5),
        IncorrectGateOrder(target=1, ordinal=1, wrong_n=True),
        IncorrectControl(target=1, ordinal=1, wrong_control=2.5),
        WrongHInput(target=1, wrong_source=2.0),
        WrongRnDataInput(target=1, ordinal=1, wrong_source=3.0),
    ])
    def test_non_integer_values_rejected(self, spec):
        with pytest.raises(ErrorInjectionError, match="must be an integer"):
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
        assert reference_serialize(generate_qft(3)) == GOLDEN_QFT3
        sink = io.BytesIO()
        write_circuit(generate_qft(3), sink)
        assert sink.getvalue() == GOLDEN_QFT3.encode()

    def test_round_trip_generated(self):
        for m in (1, 2, 5, 9):
            c = generate_qft(m)
            assert parse_circuit(serialize_circuit(c)) == c

    def test_round_trip_mutated(self):
        for m in range(2, 7):
            c = generate_qft(m)
            for spec in enumerate_error_specs(c):
                mutated = inject_error(c, spec)
                parsed = parse_circuit(serialize_circuit(mutated))
                assert parsed == mutated
                assert parsed.gates == mutated.gates

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

    @pytest.mark.parametrize("value,shown", [("2.5", "2.5"), ("true", "True"), ('"3"', "'3'")])
    def test_non_integer_qubits_named(self, value, shown):
        with pytest.raises(CircuitParseError, match=re.escape(f"m must be an integer, got {shown}")):
            parse_circuit('{"qubits": %s, "gates": []}' % value)

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
        ('{"qubits": 1, "gates": [{"kind": "H\udcff", "target": 1}]}', "surrogates not allowed"),
    ], ids=["list-kind", "object-kind", "deep-nesting", "oversized-integer", "lone-surrogate"])
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


# Values a hostile file can hold where a gate field needs an integer.
NOT_AN_INDEX = (st.booleans() | st.floats(allow_nan=False, allow_infinity=False) | st.none()
                | st.text(max_size=2) | st.lists(st.integers(0, 3), max_size=2))


@st.composite
def hostile_gate_lists(draw):
    """(m, gate entries) as json.loads gives them: mostly gates, each with up
    to two edits (a key dropped, a key added, a value or the kind replaced),
    keys in any order, and now and then an entry that is not an object."""
    m = draw(st.integers(0, 4))
    index = st.integers(-1, m + 1)
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        fields = {"kind": draw(st.sampled_from(("H", "R"))), "target": draw(index)}
        if fields["kind"] == "R":
            fields.update(n=draw(index), control=draw(index))
        for edit in draw(st.lists(st.sampled_from(("drop", "add", "value", "kind")), max_size=2)):
            if edit == "drop" and fields:
                del fields[draw(st.sampled_from(sorted(fields)))]
            elif edit == "add":
                fields[draw(st.sampled_from(("n", "control", "target", "x")))] = draw(index | NOT_AN_INDEX)
            elif edit == "value" and fields:
                fields[draw(st.sampled_from(sorted(fields)))] = draw(NOT_AN_INDEX | index)
            elif edit == "kind":
                fields["kind"] = draw(st.sampled_from(("H", "R", "X", ["H"], None, 1)))
        entry = dict(draw(st.permutations(list(fields.items()))))
        if draw(st.integers(0, 19)) == 0:
            entry = draw(st.sampled_from(([], "H", 1, None)))
        entries.append(entry)
    return m, entries


def outcome(parse):
    """What a parse gives: ("circuit", circuit, its gates) or ("error", message)."""
    try:
        c = parse()
    except CircuitError as exc:
        return ("error", str(exc))
    return ("circuit", c, None if c is None else c.gates)


class TestColumnParse:
    def test_column_checks_agree_with_the_gate_walk(self):
        # the whole-column checks accept exactly the files the gate-by-gate
        # walk accepts, and parse_circuit raises the walk's message
        seen = set()

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(hostile_gate_lists())
        def check(case):
            m, entries = case
            walked = outcome(lambda: circuit_mod._parse_gates(m, entries))
            columns = outcome(lambda: circuit_mod._parse_columns(m, entries))
            if columns[:2] == ("circuit", None):
                assert walked[0] == "error"
            else:
                assert columns == walked
            text = json.dumps({"qubits": m, "gates": entries})
            assert outcome(lambda: parse_circuit(text)) == walked
            if walked[0] == "error":
                with pytest.raises(CircuitParseError):
                    parse_circuit(text)
            seen.add(walked[0])
            seen.add("columns rejected" if columns[:2] == ("circuit", None) else "columns decided")

        check()
        assert seen == {"circuit", "error", "columns rejected", "columns decided"}


# Qubit counts in the range of each column typecode; the wide ones get few gates.
M_RANGES = {"B": (1, 255), "H": (256, 65_535), "I": (65_536, 2 ** 32 - 1)}


@st.composite
def legal_circuits(draw):
    """A circuit of legal gates at an m of each typecode, or a single-error
    mutant of a small textbook circuit."""
    if draw(st.integers(0, 3)) == 0:
        base = generate_qft(draw(st.integers(2, 5)))
        return inject_error(base, draw(st.sampled_from(list(enumerate_error_specs(base)))))
    code = draw(st.sampled_from(sorted(M_RANGES)))
    m = draw(st.integers(*M_RANGES[code]))
    line = st.integers(1, m)
    gates = []
    for _ in range(draw(st.integers(0, 10 if code == "B" else 3))):
        target = draw(line)
        if m > 1 and draw(st.booleans()):
            control = draw(line.filter(lambda c: c != target))
            gates.append(GateInstance("R", target, n=draw(line), control=control))
        else:
            gates.append(GateInstance("H", target))
    return CircuitDescription(m, gates)


def reorder_keys(text: str, line_start: int) -> str:
    """``text`` with the keys of the gate on the line at ``line_start`` reversed."""
    end = text.index("}", line_start) + 1
    fields = json.loads(text[line_start:end])
    gate = ", ".join(f'"{key}": {json.dumps(fields[key])}' for key in reversed(fields))
    return text[:line_start] + "{" + gate + "}" + text[end:]


@st.composite
def edited_files(draw):
    """(the canonical text of a circuit with one edit, the edit's name)."""
    c = draw(legal_circuits())
    text = serialize_circuit(c)
    value = draw(st.sampled_from([match.span(1) for match in re.finditer(r": (\d+)", text)]))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("leading-zero", "sign", "float", "true", "above-m", "2**64",
                                 "long-value", "reordered-keys", "space", "digit", "lone-cr",
                                 "crlf", "trailing", "trailing-comma", "no-final-newline")))
    new_value = {"leading-zero": "0" + text[slice(*value)], "sign": "-" + text[slice(*value)],
                 "float": "2.0", "true": "true", "above-m": str(c.m + 1), "2**64": str(2 ** 64),
                 "long-value": "1" * (circuit_mod._MAX_M_DIGITS + 1)}
    inserted = {"space": " ", "digit": "0123456789", "lone-cr": "\r"}
    if edit in new_value:
        text = text[:value[0]] + new_value[edit] + text[value[1]:]
    elif edit == "reordered-keys" and c.gate_count:
        starts = [match.start() for match in re.finditer(r"^\{", text, re.M)][1:]
        text = reorder_keys(text, draw(st.sampled_from(starts)))
    elif edit in inserted:
        if edit == "lone-cr":  # at a value, so it can split one onto two lines
            at = draw(st.integers(*value))
        text = text[:at] + draw(st.sampled_from(inserted[edit])) + text[at:]
    elif edit == "crlf":
        text = text.replace("\n", "\r\n")
    elif edit == "trailing":
        text += draw(st.sampled_from((" ", "\n", "x", "0", "}")))
    elif edit == "trailing-comma":  # after the last gate, as "}," or as a separator
        text = text[:-len("\n]}\n")] + draw(st.sampled_from((",", ",\n"))) + "\n]}\n"
    elif edit == "no-final-newline":
        text = text[:-1]
    return text, edit


def json_route(text):
    """What parse_circuit gives ``text`` with the canonical layout's decoder off."""
    def decline(stream):
        raise circuit_mod._NotCanonical

    with mock.patch.object(circuit_mod, "_canonical", decline):
        return outcome(lambda: parse_circuit(text))


def canonical_route(stream):
    """The circuit the canonical layout's decoder alone reads from ``stream``,
    or None where it declines the file."""
    try:
        return circuit_mod._join_blocks(*circuit_mod._canonical(stream))
    except circuit_mod._NotCanonical:
        return None


class TestCanonicalLayout:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(legal_circuits())
    def test_what_serialize_writes_is_decoded_without_json(self, c):
        text = serialize_circuit(c)
        assert canonical_route(io.BytesIO(text.encode())) == c
        assert parse_circuit(text) == c == parse_circuit(text.encode())
        assert c.targets.typecode == parse_circuit(text).targets.typecode

    def test_zero_gates(self):
        for m in (1, 255, 256, 2 ** 32):
            c = CircuitDescription(m, [])
            assert canonical_route(io.BytesIO(serialize_circuit(c).encode())) == c

    @pytest.mark.parametrize("block_bytes", [circuit_mod._BLOCK_BYTES, 1, 48])
    def test_single_edits_agree_with_the_json_route(self, monkeypatch, tmp_path, block_bytes):
        # each edit gives the circuit or the message that json.loads and the
        # column or gate-by-gate checks give, whether the text is str, bytes
        # or a file the CLI reads a block at a time (a file the decoder
        # declines is read again from its start); small blocks put the edits
        # on and between block boundaries
        monkeypatch.setattr(circuit_mod, "_BLOCK_BYTES", block_bytes)
        path = tmp_path / "edited.json"
        seen = set()

        @settings(max_examples=800, deadline=None, derandomize=True)
        @given(edited_files())
        def check(case):
            text, edit = case
            want = json_route(text)
            assert outcome(lambda: parse_circuit(text)) == want
            assert outcome(lambda: parse_circuit(text.encode())) == want
            path.write_bytes(text.encode())
            assert outcome(lambda: cli._read_circuit(str(path))) == want
            decoded = canonical_route(io.BytesIO(text.encode()))
            if decoded is not None:  # only what serialize_circuit writes
                assert serialize_circuit(decoded) == text
            seen.add(want[0])
            seen.add(edit)

        check()
        assert seen >= {"circuit", "error", "leading-zero", "long-value", "lone-cr", "crlf", "digit",
                        "reordered-keys", "trailing-comma"}

    @pytest.mark.parametrize("last_gate,message", [
        ('{"target": 64, "kind": "H"}', None),
        ('{"kind": "H", "target": 064}', "line 2081, column 26: Expecting ',' delimiter"),
        ('{"kind": "H", "target": 65}', "gate 2080: target 65 out of range 1..64"),
    ])
    def test_file_declined_in_its_last_block_is_read_again_from_its_start(
            self, monkeypatch, tmp_path, last_gate, message):
        # canonical for a score of blocks, then not in the last one
        monkeypatch.setattr(circuit_mod, "_BLOCK_BYTES", 4096)
        decoded, decode = [], circuit_mod._decode_block

        def record(*args):
            try:
                block = decode(*args)
            except circuit_mod._NotCanonical:
                decoded.append(False)
                raise
            decoded.append(True)
            return block

        monkeypatch.setattr(circuit_mod, "_decode_block", record)
        c = generate_qft(64)
        text = serialize_circuit(c)
        assert text.endswith('\n{"kind": "H", "target": 64}\n]}\n')
        text = text[:text.rindex("\n{") + 1] + last_gate + "\n]}\n"
        path = tmp_path / "late.json"
        path.write_bytes(text.encode())
        got = outcome(lambda: cli._read_circuit(str(path)))
        assert decoded.count(True) >= 20 and decoded[-1] is False
        assert got == (("circuit", c, c.gates) if message is None else ("error", message))
        assert got == json_route(text)

    @pytest.mark.parametrize("layout", ["canonical", "compact"])
    def test_stream_is_read_from_where_it_stands(self, layout):
        # a file the decoder declines is read again from where it stood, not
        # from offset 0
        c = generate_qft(3)
        text = serialize_circuit(c)
        if layout == "compact":
            text = json.dumps(json.loads(text))
        stream = io.BytesIO(b"JUNK" + text.encode())
        stream.read(4)
        assert outcome(lambda: parse_circuit(stream)) == ("circuit", c, c.gates)

    def test_line_longer_than_any_gate_is_declined_at_once(self):
        # a canonical header, then a first line of megabytes without a
        # separator: the decoder stops after one read instead of carrying it on
        c = generate_qft(3)
        text = serialize_circuit(c).replace('"H", ', '"H",' + " " * (4 << 20), 1)
        stream = io.BytesIO(text.encode())
        assert canonical_route(stream) is None
        assert stream.tell() < 2 * circuit_mod._BLOCK_BYTES
        assert parse_circuit(text.encode()) == c

    def test_textbook_file_takes_the_fast_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the file went through json.loads")

        text = serialize_circuit(generate_qft(64))
        monkeypatch.setattr(circuit_mod, "_parse_columns", refuse)
        monkeypatch.setattr(circuit_mod, "_parse_gates", refuse)
        assert parse_circuit(text.encode()) == generate_qft(64) == parse_circuit(text)

    # tracemalloc peak of parse_circuit on the bytes of the m = 512 textbook
    # file: 37.1 MB through json.loads, one dict per gate; 4.27 MiB decoded
    # from the canonical layout a megabyte of lines at a time, 1.16 MiB
    # 64 KiB at a time.
    PEAK_BYTES = 3 << 20

    def test_textbook_file_decodes_in_little_memory(self):
        data = serialize_circuit(generate_qft(512)).encode()
        tracemalloc.start()
        try:
            c = parse_circuit(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.gate_count == qft_gate_count(512)
        assert peak < self.PEAK_BYTES


    # tracemalloc peak of cli._read_circuit on the m = 1024 textbook file:
    # 36.7 MiB with the whole file read before it is decoded, 6.55 MiB read
    # and decoded a megabyte at a time, 3.42 MiB 64 KiB at a time (of which
    # the circuit's columns are 3.0 MiB).
    READ_PEAK_BYTES = 5 << 20

    def test_textbook_file_is_read_in_little_memory(self, tmp_path):
        path = tmp_path / "qft1024.json"
        path.write_text(serialize_circuit(generate_qft(1024)), encoding="utf-8")
        tracemalloc.start()
        try:
            c = cli._read_circuit(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c == generate_qft(1024)
        assert peak < self.READ_PEAK_BYTES


def random_circuit(rng: random.Random, m: int, gates: int, h_share: float) -> CircuitDescription:
    """``gates`` legal gates on random lines of an m-qubit circuit, about
    ``h_share`` of them H: lines come back later in the program, and an H
    may repeat."""
    targets, orders, controls = [], [], []
    for _ in range(gates):
        target = rng.randint(1, m)
        targets.append(target)
        if m == 1 or rng.random() < h_share:
            orders.append(0)
            controls.append(0)
        else:
            control = rng.randint(1, m - 1)
            orders.append(rng.randint(1, m))
            controls.append(control + (control >= target))
    return CircuitDescription._from_columns(m, targets, orders, controls)


@st.composite
def long_circuits(draw):
    """A random circuit of one to three blocks of the writer and a bit."""
    m = draw(st.sampled_from((1, 2, 255, 256, 65_535, 65_536)) | st.integers(2, 300))
    block = circuit_mod._WRITE_GATES
    gates = draw(st.sampled_from((block - 1, block, block + 1)) | st.integers(block, 3 * block + 7))
    h_share = draw(st.sampled_from((0.0, 0.05, 0.5, 1.0)))
    return random_circuit(random.Random(draw(st.integers(0, 2 ** 32))), m, gates, h_share)


def assert_written_as_reference(c: CircuitDescription) -> None:
    """serialize_circuit and write_circuit give the one-gate-at-a-time
    writer's bytes, and the file reads back as ``c``."""
    text = reference_serialize(c)
    assert serialize_circuit(c) == text
    sink = io.BytesIO()
    assert write_circuit(c, sink) is None
    assert sink.getvalue() == text.encode()
    assert parse_circuit(sink.getvalue()) == c


class TestWriter:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(long_circuits())
    def test_random_circuits_are_written_as_the_reference_writes_them(self, c):
        assert c.gate_count >= circuit_mod._WRITE_GATES - 1
        assert_written_as_reference(c)

    @pytest.mark.parametrize("m", [1, 255, 256, 65_535, 65_536])
    @pytest.mark.parametrize("h_share", [0.0, 0.2, 1.0])
    def test_every_typecode_bound(self, m, h_share):
        c = random_circuit(random.Random(m), m, 2 * circuit_mod._WRITE_GATES + 3, h_share)
        assert_written_as_reference(c)

    def test_widest_m_needs_no_table_sized_by_it(self):
        # a table indexed by value up to m would not fit in any memory
        m = 2 ** 64 - 1
        c = CircuitDescription(m, (GateInstance("H", m), GateInstance("R", 1, n=m, control=m),
                                   GateInstance("H", 1)))
        assert c.targets.typecode == "Q"
        assert_written_as_reference(c)

    @pytest.mark.parametrize("m", [1, 2 ** 64 - 1])
    def test_empty_circuit(self, m):
        c = CircuitDescription(m, ())
        assert serialize_circuit(c) == '{"qubits": %d, "gates": [\n]}\n' % m
        assert_written_as_reference(c)

    def test_h_only_over_several_blocks(self):
        m = 65_535
        zeros = [0] * m
        assert_written_as_reference(CircuitDescription._from_columns(m, range(1, m + 1), zeros, zeros))

    def test_lines_come_back_in_a_later_block(self):
        # the textbook circuit twice: every line comes back, blocks later
        c = generate_qft(200)
        twice = CircuitDescription._from_columns(200, c.targets * 2, c.orders * 2, c.controls * 2)
        assert twice.gate_count > 2 * circuit_mod._WRITE_GATES
        assert_written_as_reference(twice)

    # tracemalloc peak of writing the m = 1024 textbook file (29 MB) to a
    # sink, counted from after the circuit is built: 112 MiB for one str per
    # gate, joined and then encoded whole; 6.1 MiB a block of 16,384 gates
    # at a time, most of it the Py_buffer that bytes.join takes per piece.
    WRITE_PEAK_BYTES = 8 << 20

    def test_textbook_file_is_written_in_little_memory(self):
        class HashSink:
            """A binary stream that keeps only the SHA-256 of its bytes."""

            def __init__(self):
                self.digest = hashlib.sha256()

            def write(self, data):
                self.digest.update(data)
                return len(data)

        c = generate_qft(1024)
        sink = HashSink()
        tracemalloc.start()
        try:
            write_circuit(c, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.WRITE_PEAK_BYTES
        assert sink.digest.digest() == hashlib.sha256(serialize_circuit(c).encode()).digest()


class TestCompactColumns:
    # Traced bytes per single-error mutant of generate_qft(16) at the last
    # commit with a gate tuple per circuit, measured the same way.
    GATE_TUPLE_BYTES_PER_MUTANT = 1248

    def test_mutants_hold_no_more_than_gate_tuples_and_no_gates(self):
        base = generate_qft(16)
        specs = list(enumerate_error_specs(base))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            circuits = [inject_error(base, spec) for spec in specs]
            held = tracemalloc.get_traced_memory()[0] - start
            for c in circuits:
                assert len(c.gates) == c.gate_count  # built, then dropped
            after_views = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(circuits) == 5432
        assert held / len(circuits) <= self.GATE_TUPLE_BYTES_PER_MUTANT
        # a cached view would keep 136 gates per circuit, megabytes in all
        assert after_views - held < 4096

    def test_no_path_builds_a_gate(self, monkeypatch, tmp_path):
        def refuse(gate):
            raise AssertionError(f"built a gate object: {gate.kind} on {gate.target}")

        m = 8
        canonical = serialize_circuit(generate_qft(m))
        text = serialize_circuit(inject_error(generate_qft(m), IncorrectGateOrder(2, 1, 5)))
        monkeypatch.setattr(GateInstance, "__post_init__", refuse)
        assert verify_circuit(parse_circuit(text)).overall == "violation"
        assert serialize_circuit(generate_qft(m)) == canonical
        base = generate_qft(m)
        mutants = [inject_error(base, spec) for spec in enumerate_error_specs(base)]
        assert {verify_circuit(c).overall for c in mutants} == {"violation", "type_error"}
        assert len(write_obligations(base, tmp_path)) == m
        result = run_bench(BenchConfig(sizes=[m], scenarios=["gate-2"], measure_memory=False))
        assert result.records[0].verdict == "violation"
        with pytest.raises(AssertionError, match="built a gate object"):
            GateInstance("H", 1)
