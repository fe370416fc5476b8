"""Reference computations for the benchmark, made apart from qftverify.

Nothing here imports the package under test.  Gates are plain tuples,
``("H", target)`` or ``("R", target, n, control)``, and every check returns a
list of problems (empty when the program's output is right).

The phase arithmetic is the textbook one: on a basis input b1..bm, line t
holds an m-bit fraction of a full turn.  Its H loads ``b_t`` at weight 2**-1;
a rotation of order n adds 2**-n when its control's input bit is 1; the sum
wraps modulo one turn.  A line's value is therefore ``sum_j c_j * b_j mod
2**m`` with integer coefficients ``c_j``, and two such values agree on all
2**m inputs exactly when their coefficients agree modulo 2**m (the unit
inputs fix each coefficient, and the sum is additive).  ``holds_on_all_inputs``
uses that, and the tests check it against plain enumeration.
"""

from __future__ import annotations

import re
from pathlib import Path


def textbook_line(i: int, m: int) -> list[tuple]:
    """Qubit i of the m-qubit transform: H, then R(k) controlled by qubit i+k-1."""
    return [("H", i)] + [("R", i, k, i + k - 1) for k in range(2, m - i + 2)]


def textbook_gates(m: int) -> list[tuple]:
    return [gate for i in range(1, m + 1) for gate in textbook_line(i, m)]


def textbook_gate_count(m: int) -> int:
    return m * (m + 1) // 2


def split_rotation(gates: list[tuple], index: int) -> list[tuple]:
    """Replace rotation ``gates[index]`` by two rotations of half its angle."""
    kind, target, n, control = gates[index]
    assert kind == "R"
    half = ("R", target, n + 1, control)
    return gates[:index] + [half, half] + gates[index + 1:]


def change_order(gates: list[tuple], target: int, ordinal: int, wrong_n: int) -> list[tuple]:
    """The ``ordinal``-th rotation on line ``target`` gets order ``wrong_n``."""
    seen = 0
    for k, gate in enumerate(gates):
        if gate[0] == "R" and gate[1] == target:
            seen += 1
            if seen == ordinal:
                return gates[:k] + [("R", target, wrong_n, gate[3])] + gates[k + 1:]
    raise ValueError(f"line {target} has no rotation {ordinal}")


def wire_error(m: int, gates: list[tuple]) -> bool:
    """True when some line gets a second H, or a rotation before its H."""
    has_h = [False] * (m + 1)
    for gate in gates:
        target = gate[1]
        if gate[0] == "H":
            if has_h[target]:
                return True
            has_h[target] = True
        elif not has_h[target]:
            return True
    return False


def line_coefficients(m: int, gates: list[tuple]) -> list[list[int] | None]:
    """Per line (index 0 unused), the coefficients c[1..m] of the line's phase.

    A line that never receives an H has no phase and gets None.  The circuit
    must pass ``wire_error``.
    """
    modulus = 1 << m
    coef: list[list[int] | None] = [None] * (m + 1)
    for gate in gates:
        target = gate[1]
        if gate[0] == "H":
            coef[target] = [0] * (m + 1)
            coef[target][target] = 1 << (m - 1)
        else:
            _, _, n, control = gate
            row = coef[target]
            row[control] = (row[control] + (1 << (m - n))) % modulus
    return coef


def target_coefficients(i: int, m: int) -> list[int]:
    """Qubit i must carry .b(i) b(i+1) .. b(m) 0 .. 0."""
    row = [0] * (m + 1)
    for j in range(i, m + 1):
        row[j] = 1 << (m - 1 - (j - i))
    return row


def phase(row: list[int], bits: dict[int, int], m: int) -> int:
    return sum(c for j, c in enumerate(row) if j and bits.get(j)) % (1 << m)


def to_bits(value: int, m: int) -> tuple[int, ...]:
    """The m fractional bits of a phase, most significant first."""
    return tuple((value >> (m - 1 - p)) & 1 for p in range(m))


def holds_on_all_inputs(row: list[int] | None, i: int, m: int) -> bool:
    return row is not None and row == target_coefficients(i, m)


def separating_input(row: list[int], i: int, m: int) -> dict[int, int] | None:
    """A basis input on which the line differs from qubit i's target, if any."""
    want = target_coefficients(i, m)
    for j in range(1, m + 1):
        if row[j] != want[j]:
            bits = {k: 0 for k in range(1, m + 1)}
            bits[j] = 1
            return bits
    return None


def check_violation(row: list[int] | None, i: int, m: int, counterexample: dict[int, int],
                    expected, actual) -> list[str]:
    """A reported counterexample must separate actual from expected, and the
    reported bits must equal the reference arithmetic."""
    problems = []
    want = to_bits(phase(target_coefficients(i, m), counterexample, m), m)
    if tuple(expected) != want:
        problems.append(f"qubit {i}: expected bits {expected} differ from reference {want}")
    if row is None:
        if actual is not None:
            problems.append(f"qubit {i}: line has no H but actual bits {actual} were reported")
        return problems
    got = to_bits(phase(row, counterexample, m), m)
    if actual is None or tuple(actual) != got:
        problems.append(f"qubit {i}: actual bits {actual} differ from reference {got}")
    if got == want:
        problems.append(f"qubit {i}: counterexample does not separate actual from expected")
    return problems


def check_report(m: int, gates: list[tuple], overall: str, records: list) -> list[str]:
    """Check one exhaustive verification report of a circuit.

    ``records`` holds ``(qubit, status, counterexample, expected, actual)``;
    ``counterexample`` maps input index to bit.  type_error must appear
    exactly when the wire check fails; otherwise every qubit 1..m has a
    record, verified qubits hold on all inputs and violations carry a
    separating counterexample.
    """
    if wire_error(m, gates):
        return [] if overall == "type_error" else [f"wire error reported as {overall}"]
    if overall == "type_error":
        return ["type_error on a circuit that passes the wire check"]
    if [r[0] for r in records] != list(range(1, m + 1)):
        return [f"records cover qubits {[r[0] for r in records]}, not 1..{m}"]
    coef = line_coefficients(m, gates)
    problems = []
    for qubit, status, counterexample, expected, actual in records:
        row = coef[qubit]
        if status == "verified":
            if not holds_on_all_inputs(row, qubit, m):
                problems.append(f"qubit {qubit}: false pass")
        elif status == "violation":
            problems += check_violation(row, qubit, m, counterexample, expected, actual)
        else:
            problems.append(f"qubit {qubit}: unexpected status {status}")
    statuses = {r[1] for r in records}
    want_overall = "violation" if "violation" in statuses else "verified"
    if overall != want_overall:
        problems.append(f"overall {overall} but qubit verdicts give {want_overall}")
    return problems


def gate_from_json(entry: dict) -> tuple:
    if entry.get("kind") == "H" and set(entry) == {"kind", "target"}:
        return ("H", entry["target"])
    if entry.get("kind") == "R" and set(entry) == {"kind", "n", "target", "control"}:
        return ("R", entry["target"], entry["n"], entry["control"])
    raise ValueError(f"not a gate: {entry!r}")


def check_circuit_doc(doc, m: int) -> list[str]:
    """A decoded circuit file must be exactly the textbook transform."""
    if not isinstance(doc, dict) or set(doc) != {"qubits", "gates"} or doc["qubits"] != m:
        return ["circuit file header is not {qubits: m, gates: [...]}"]
    want = textbook_gates(m)
    if len(doc["gates"]) != len(want):
        return [f"circuit file has {len(doc['gates'])} gates, textbook has {len(want)}"]
    for k, (entry, gate) in enumerate(zip(doc["gates"], want), start=1):
        try:
            got = gate_from_json(entry)
        except ValueError as exc:
            return [f"gate {k}: {exc}"]
        if got != gate:
            return [f"gate {k} is {got}, textbook has {gate}"]
    return []


def check_verify_json(doc, m: int) -> list[str]:
    """`qftv verify --json` output for the textbook circuit."""
    if doc.get("overall") != "verified":
        return [f"overall is {doc.get('overall')!r}"]
    entries = doc.get("per_qubit", [])
    if [e.get("qubit") for e in entries] != list(range(1, m + 1)):
        return ["per_qubit does not list qubits 1..m once each"]
    bad = [e["qubit"] for e in entries if e.get("verdict") != "verified"]
    return [f"qubits {bad[:5]} not verified"] if bad else []


_DECL = re.compile(r"\(declare-const b(\d+) Bool\)")


def check_obligation(text: str, i: int, m: int) -> list[str]:
    """Shape of qubit i's SMT-LIB2 obligation for the textbook circuit."""
    problems = []
    if [int(k) for k in _DECL.findall(text)] != list(range(1, m + 1)):
        problems.append(f"q{i}: does not declare b1..b{m} once each")
    if f"(_ BitVec {m})" not in text or re.search(r"\(_ BitVec (?!%d\))" % m, text):
        problems.append(f"q{i}: bit-vectors are not all of width {m}")
    adds = text.count("(bvadd ")
    if adds != m - i:
        problems.append(f"q{i}: {adds} bvadd steps, textbook line has {m - i} rotations")
    tail = text.strip()
    if tail.endswith("(get-model)"):
        tail = tail[: -len("(get-model)")].rstrip()
    if not tail.endswith("(check-sat)"):
        problems.append(f"q{i}: does not end in (check-sat)")
    return problems


def check_obligation_dir(directory: Path, m: int) -> list[str]:
    """The export of the textbook circuit: q1..qm.smt2 and nothing else, each
    of the right shape.  Files are read one at a time."""
    want = {f"q{i}.smt2" for i in range(1, m + 1)}
    names = {p.name for p in Path(directory).iterdir()}
    if names != want:
        missing, extra = sorted(want - names), sorted(names - want)
        return [f"obligation files: missing {missing[:5]}, unexpected {extra[:5]}"]
    problems = []
    for i in range(1, m + 1):
        problems += check_obligation((Path(directory) / f"q{i}.smt2").read_text(encoding="utf-8"),
                                     i, m)
    return problems
