"""The streamed verify of a circuit file against verify_circuit(parse_circuit(...)).

checker.verify_stream groups a canonical file a block at a time as it is
decoded and holds a textbook line as a length only; its report must be the
one verify_circuit gives the parsed circuit, type error ordinals included.
Small blocks put every run across block boundaries.
"""

import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qftverify import circuit as circuit_mod
from qftverify.abstraction import TypeErrorKind
from qftverify.checker import CheckerConfig, verify_circuit, verify_stream
from qftverify.circuit import (
    CircuitDescription,
    GateInstance,
    enumerate_error_specs,
    generate_qft,
    inject_error,
    parse_circuit,
    qft_gate_count,
    serialize_circuit,
    write_circuit,
)

# a block is read 1, 40 or 200 bytes at a time and cut at its last whole
# gate line: one gate a block, one or two, then a few
BLOCK_SIZES = pytest.mark.parametrize("block_bytes", [1, 40, 200])


def without_millis(report) -> dict:
    doc = report.to_dict()
    for entry in doc["per_qubit"]:
        del entry["millis"]
    return doc


def both_routes(c: CircuitDescription, exhaustive: bool) -> tuple[dict, dict]:
    """The streamed report of c's file and verify_circuit's report of it parsed."""
    data = serialize_circuit(c).encode()
    cfg = CheckerConfig(exhaustive=exhaustive)
    return (without_millis(verify_stream(io.BytesIO(data), cfg)),
            without_millis(verify_circuit(parse_circuit(data), cfg)))


def interleaved(m: int, rng: random.Random) -> CircuitDescription:
    """The textbook circuit with its lines' gates merged in a random order,
    each line's own order kept, so lines come back later in the program."""
    c = generate_qft(m)
    per_line = [[(t, n, k) for t, n, k in zip(c.targets, c.orders, c.controls) if t == i]
                for i in range(1, m + 1)]
    gates = []
    while any(per_line):
        gates.append(rng.choice([line for line in per_line if line]).pop(0))
    return CircuitDescription._from_columns(m, *zip(*gates))


@st.composite
def streamed_circuits(draw):
    """A circuit at m <= 9: textbook, with one or two injected errors, with
    its lines interleaved, with one gate moved elsewhere, or of random legal
    gates (none at all among them)."""
    m = draw(st.integers(1, 9))
    c = generate_qft(m)
    how = draw(st.sampled_from(("textbook", "errors", "interleaved", "moved", "random")))
    if how == "errors":
        for _ in range(draw(st.integers(1, 2))):
            specs = list(enumerate_error_specs(c))
            if specs:
                c = inject_error(c, draw(st.sampled_from(specs)))
    elif how == "interleaved":
        c = interleaved(m, random.Random(draw(st.integers(0, 2 ** 32))))
    elif how == "moved":
        gates = list(zip(c.targets, c.orders, c.controls))
        gate = gates.pop(draw(st.integers(0, len(gates) - 1)))
        gates.insert(draw(st.integers(0, len(gates))), gate)
        c = CircuitDescription._from_columns(m, *zip(*gates))
    elif how == "random":
        line = st.integers(1, m)
        gates = []
        for _ in range(draw(st.integers(0, 3 * m))):
            target = draw(line)
            if m > 1 and draw(st.booleans()):
                control = draw(line.filter(lambda k: k != target))
                gates.append(GateInstance("R", target, n=draw(line), control=control))
            else:
                gates.append(GateInstance("H", target))
        c = CircuitDescription(m, gates)
    return c


class TestSameReport:
    def test_every_single_mutant(self, monkeypatch):
        # two to four gates a block: a line's H and its first rotations are
        # often grouped in one block, and its later rotations in the next
        monkeypatch.setattr(circuit_mod, "_BLOCK_BYTES", 120)
        seen = set()
        for m in range(1, 10):
            base = generate_qft(m)
            for c in [base, *(inject_error(base, spec) for spec in enumerate_error_specs(base))]:
                for exhaustive in (False, True):
                    streamed, whole = both_routes(c, exhaustive)
                    assert streamed == whole
                    seen.add(whole["overall"])
                    if "type_error" in whole:
                        seen.add(whole["type_error"]["kind"])
        assert seen == {"verified", "violation", "type_error", *(kind.value for kind in TypeErrorKind)}

    @BLOCK_SIZES
    def test_random_circuits_and_double_mutants(self, monkeypatch, block_bytes):
        monkeypatch.setattr(circuit_mod, "_BLOCK_BYTES", block_bytes)
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(streamed_circuits(), st.booleans())
        def check(c, exhaustive):
            streamed, whole = both_routes(c, exhaustive)
            assert streamed == whole
            seen.add(whole["overall"])
            if "type_error" in whole:
                # ordinals past the first block are counted from the file's start
                seen.add((whole["type_error"]["kind"], whole["type_error"]["gate"] > 1))

        check()
        assert seen >= {"verified", "violation", "type_error",
                        *((kind.value, True) for kind in TypeErrorKind)}

    @BLOCK_SIZES
    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("case", [
        "m1", "m1-duplicate-h", "no-gates", "interleaved", "h-inside-a-run", "h-after-its-run"])
    def test_named_cases(self, monkeypatch, block_bytes, exhaustive, case):
        monkeypatch.setattr(circuit_mod, "_BLOCK_BYTES", block_bytes)
        circuits = {
            "m1": generate_qft(1),
            "m1-duplicate-h": CircuitDescription(1, [GateInstance("H", 1)] * 2),
            "no-gates": CircuitDescription(4, []),
            "interleaved": interleaved(8, random.Random(7)),
            # line 2's second H sits inside its run, after a rotation
            "h-inside-a-run": CircuitDescription(3, [
                GateInstance("H", 1), GateInstance("H", 2), GateInstance("R", 2, n=2, control=3),
                GateInstance("H", 2), GateInstance("H", 3)]),
            # line 1's second H comes back after other lines, a whole block later
            "h-after-its-run": CircuitDescription(3, [
                *generate_qft(3).gates, GateInstance("H", 1)]),
        }
        streamed, whole = both_routes(circuits[case], exhaustive)
        assert streamed == whole

    def test_interleaved_textbook_lines_are_verified(self, monkeypatch):
        monkeypatch.setattr(circuit_mod, "_BLOCK_BYTES", 1)
        for seed in range(20):
            streamed, whole = both_routes(interleaved(9, random.Random(seed)), True)
            assert streamed == whole and streamed["overall"] == "verified"


class TestBoundedMemory:
    # tracemalloc peak of verifying the m = 1024 file (524,800 gates, 30 MB):
    # 5.56 MiB through parse_circuit and verify_circuit, which hold the
    # circuit's three columns; 0.45 MiB streamed, which holds one block and
    # a length per textbook line.
    PEAK_BYTES = 3 << 19

    def test_textbook_file_streams_in_little_memory(self, tmp_path):
        path = tmp_path / "qft1024.json"
        with path.open("wb") as handle:
            write_circuit(generate_qft(1024), handle)
        with path.open("rb") as handle:
            tracemalloc.start()
            try:
                report = verify_stream(handle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (report.overall, report.gate_count) == ("verified", qft_gate_count(1024))
        assert peak < self.PEAK_BYTES
