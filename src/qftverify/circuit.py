"""Circuit IR, the canonical QFT generator, the fault injector, and file I/O.

A circuit is a flat, program-ordered list of gates over ``m`` qubit lines.
Only two gate kinds exist: H on a target line, and a controlled rotation
R(n) of angle 2*pi/2**n on a target line.  Rotation controls are *indices of
initial qubit lines*: a control always means "the value this line carried
before any gate touched it", never the line's evolved state.  Qubit and gate
indices are 1-based throughout.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from typing import Iterator, Union

__all__ = [
    "GateInstance",
    "CircuitDescription",
    "CircuitError",
    "CircuitParseError",
    "ErrorInjectionError",
    "IncorrectGateOrder",
    "IncorrectControl",
    "MissingH",
    "DuplicateH",
    "WrongHInput",
    "WrongRnDataInput",
    "ErrorSpec",
    "generate_qft",
    "iter_qft_gates",
    "qft_line",
    "qft_line_gates",
    "qft_gate_count",
    "inject_error",
    "parse_circuit",
    "serialize_circuit",
    "enumerate_error_specs",
    "parse_error_spec",
]


class CircuitError(ValueError):
    """A structurally invalid circuit or gate."""


class CircuitParseError(CircuitError):
    """Bad circuit file: syntax or semantic violation, with location info."""


class ErrorInjectionError(CircuitError):
    """The requested mutation cannot be applied to this circuit."""


@dataclass(frozen=True, slots=True)
class GateInstance:
    """One gate: ``kind`` is "H" or "R"; R carries a rotation order and a control.

    For R gates ``n >= 1`` (order 1, a pi rotation, is legal even though the
    canonical generator never emits it) and ``control != target``.  Range
    checks against the qubit count happen at CircuitDescription level.
    """

    kind: str
    target: int
    n: int | None = None
    control: int | None = None

    def __post_init__(self):
        if self.kind == "H":
            if self.n is not None or self.control is not None:
                raise CircuitError("H gate takes no rotation order and no control")
        elif self.kind == "R":
            if self.n is None or self.n < 1:
                raise CircuitError(f"R gate needs a rotation order n >= 1, got {self.n}")
            if self.control is None:
                raise CircuitError("R gate needs a control qubit")
            if self.control == self.target:
                raise CircuitError(f"control equals target (qubit {self.target})")
        else:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if self.target < 1:
            raise CircuitError(f"target must be >= 1, got {self.target}")
        if self.control is not None and self.control < 1:
            raise CircuitError(f"control must be >= 1, got {self.control}")


@dataclass(frozen=True, slots=True)
class CircuitDescription:
    """An ``m``-qubit circuit; gate order in the tuple is application order."""

    m: int
    gates: tuple[GateInstance, ...]

    def __post_init__(self):
        if self.m < 1:
            raise CircuitError(f"m must be >= 1, got {self.m}")
        if not isinstance(self.gates, tuple):
            object.__setattr__(self, "gates", tuple(self.gates))
        for ordinal, gate in enumerate(self.gates, start=1):
            if gate.target > self.m:
                raise CircuitError(f"gate {ordinal}: target {gate.target} out of range 1..{self.m}")
            if gate.control is not None and gate.control > self.m:
                raise CircuitError(f"gate {ordinal}: control {gate.control} out of range 1..{self.m}")
            if gate.n is not None and gate.n > self.m:
                raise CircuitError(
                    f"gate {ordinal}: rotation order {gate.n} exceeds qubit count {self.m}"
                )

    @property
    def gate_count(self) -> int:
        return len(self.gates)


def qft_gate_count(m: int) -> int:
    """Gate count of the canonical m-qubit transform circuit: m H gates plus
    one rotation per qubit pair, i.e. m*(m+1)/2 total."""
    if m < 1:
        raise CircuitError(f"m must be >= 1, got {m}")
    return m * (m + 1) // 2


@functools.lru_cache(maxsize=1)
def _naturals(m: int) -> list[int]:
    # never mutated: slicing one list of shared ints is several times cheaper
    # than list(range(..)), which allocates a new int per entry
    return list(range(m + 1))


def qft_line(m: int, i: int) -> tuple[list[int], list[int]]:
    """Line i's rotations in the canonical circuit, as (orders, controls):
    R(n) controlled by line i+n-1, for n = 2..m-i+1.  The line's H precedes
    them."""
    naturals = _naturals(m)
    return naturals[2:m - i + 2], naturals[i + 1:m + 1]


def qft_line_gates(m: int, i: int) -> Iterator[GateInstance]:
    """Line i's gates in the canonical circuit: its H, then its rotations."""
    yield GateInstance("H", i)
    for n, control in zip(*qft_line(m, i)):
        yield GateInstance("R", i, n=n, control=control)


def iter_qft_gates(m: int) -> Iterator[GateInstance]:
    """Stream the canonical circuit's gates without materializing them.

    Qubit by qubit in ascending order: H on line i, then R(2)..R(m-i+1)
    targeting line i with controls i+1..m.  Controls are taken from lines
    whose own H has not yet appeared, so every control reads an initial value
    even under literal program-order execution.
    """
    if m < 1:
        raise CircuitError(f"m must be >= 1, got {m}")
    for i in range(1, m + 1):
        yield from qft_line_gates(m, i)


def generate_qft(m: int) -> CircuitDescription:
    """The canonical, correct m-qubit circuit."""
    return CircuitDescription(m, tuple(iter_qft_gates(m)))


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------
#
# Mutations are specified against a line's rotation gates by *rotation
# ordinal*: the k-th R gate targeting that line in program order (H gates do
# not count).  The two wrong-input kinds retarget a gate to a different line,
# which is the only way a line-based IR can express a mis-wired input port:
# quantum wires cannot fan out, so "gate fed from the wrong line" means the
# gate sits on the wrong line.


@dataclass(frozen=True, slots=True)
class IncorrectGateOrder:
    """Rotation gate at ``ordinal`` on line ``target`` gets order ``wrong_n``."""

    target: int
    ordinal: int
    wrong_n: int


@dataclass(frozen=True, slots=True)
class IncorrectControl:
    """Rotation gate at ``ordinal`` on line ``target`` gets control ``wrong_control``."""

    target: int
    ordinal: int
    wrong_control: int


@dataclass(frozen=True, slots=True)
class MissingH:
    """Remove the H gate on line ``target``."""

    target: int


@dataclass(frozen=True, slots=True)
class DuplicateH:
    """Insert a second H on line ``target``, right after the existing one."""

    target: int


@dataclass(frozen=True, slots=True)
class WrongHInput:
    """The H meant for line ``target`` acts on line ``wrong_source`` instead."""

    target: int
    wrong_source: int


@dataclass(frozen=True, slots=True)
class WrongRnDataInput:
    """Rotation at ``ordinal`` on line ``target`` acts on line ``wrong_source`` instead."""

    target: int
    ordinal: int
    wrong_source: int


ErrorSpec = Union[
    IncorrectGateOrder,
    IncorrectControl,
    MissingH,
    DuplicateH,
    WrongHInput,
    WrongRnDataInput,
]


def _line_h_index(c: CircuitDescription, line: int) -> int:
    for k, g in enumerate(c.gates):
        if g.kind == "H" and g.target == line:
            return k
    raise ErrorInjectionError(f"line {line} has no H gate to mutate")

def _line_r_index(c: CircuitDescription, line: int, ordinal: int) -> int:
    seen = 0
    for k, g in enumerate(c.gates):
        if g.kind == "R" and g.target == line:
            seen += 1
            if seen == ordinal:
                return k
    raise ErrorInjectionError(
        f"line {line} has {seen} rotation gates; ordinal {ordinal} does not exist"
    )


def inject_error(c: CircuitDescription, spec: ErrorSpec) -> CircuitDescription:
    """Apply one mutation, returning a new circuit; the input is unmodified.

    Mutations that would not change the circuit (wrong value equals the
    correct one) or whose gate or circuit the constructors reject are raised
    as ErrorInjectionError.
    """
    if not isinstance(spec, ErrorSpec):
        raise ErrorInjectionError(f"unknown error spec {spec!r}")
    if not 1 <= spec.target <= c.m:
        raise ErrorInjectionError(f"target {spec.target} out of range 1..{c.m}")
    gates = list(c.gates)
    try:
        if isinstance(spec, (MissingH, DuplicateH, WrongHInput)):
            k = _line_h_index(c, spec.target)
        else:
            k = _line_r_index(c, spec.target, spec.ordinal)
        old = gates[k]
        if isinstance(spec, IncorrectGateOrder):
            if not 1 <= spec.wrong_n <= c.m:
                raise ErrorInjectionError(f"rotation order {spec.wrong_n} out of range 1..{c.m}")
            if spec.wrong_n == old.n:
                raise ErrorInjectionError(f"gate already has order {old.n}; mutation is a no-op")
            gates[k] = replace(old, n=spec.wrong_n)
        elif isinstance(spec, IncorrectControl):
            if spec.wrong_control == old.control:
                raise ErrorInjectionError(f"gate already controlled by {old.control}; mutation is a no-op")
            gates[k] = replace(old, control=spec.wrong_control)
        elif isinstance(spec, MissingH):
            del gates[k]
        elif isinstance(spec, DuplicateH):
            gates.insert(k + 1, old)
        elif spec.wrong_source == spec.target:
            raise ErrorInjectionError("source equals the correct line; mutation is a no-op")
        else:
            gates[k] = replace(old, target=spec.wrong_source)
        return CircuitDescription(c.m, tuple(gates))
    except ErrorInjectionError:
        raise
    except CircuitError as exc:
        raise ErrorInjectionError(str(exc)) from None


def enumerate_error_specs(c: CircuitDescription) -> Iterator[ErrorSpec]:
    """Every single-error mutation of every kind at every legal position.

    "Legal" means inject_error accepts it: indices in range, the wrong value
    differs from the correct one, and the mutated gate stays structurally
    valid.  Used by exhaustive mutation sweeps.
    """
    m = c.m
    r_per_line: dict[int, list[GateInstance]] = {}
    h_lines: set[int] = set()
    for g in c.gates:
        if g.kind == "R":
            r_per_line.setdefault(g.target, []).append(g)
        else:
            h_lines.add(g.target)
    for line in sorted(r_per_line):
        for ordinal, g in enumerate(r_per_line[line], start=1):
            for wrong_n in range(1, m + 1):
                if wrong_n != g.n:
                    yield IncorrectGateOrder(line, ordinal, wrong_n)
            for wrong_control in range(1, m + 1):
                if wrong_control not in (g.control, g.target):
                    yield IncorrectControl(line, ordinal, wrong_control)
            for wrong_source in range(1, m + 1):
                if wrong_source not in (g.target, g.control):
                    yield WrongRnDataInput(line, ordinal, wrong_source)
    for line in sorted(h_lines):
        yield MissingH(line)
        yield DuplicateH(line)
        for wrong_source in range(1, m + 1):
            if wrong_source != line:
                yield WrongHInput(line, wrong_source)


# ---------------------------------------------------------------------------
# Error spec text form (CLI surface)
# ---------------------------------------------------------------------------

_SPEC_KINDS = {
    "incorrect-gate": (IncorrectGateOrder, ("target", "ordinal", "wrong-n")),
    "incorrect-control": (IncorrectControl, ("target", "ordinal", "wrong-control")),
    "missing-h": (MissingH, ("target",)),
    "duplicate-h": (DuplicateH, ("target",)),
    "wrong-h-input": (WrongHInput, ("target", "wrong-source")),
    "wrong-rn-data-input": (WrongRnDataInput, ("target", "ordinal", "wrong-source")),
}


def parse_error_spec(text: str) -> ErrorSpec:
    """Parse ``kind:key=value,...`` as accepted by ``qftv inject --error``.

    Example: ``incorrect-gate:target=1,ordinal=1,wrong-n=3``.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in _SPEC_KINDS:
        raise CircuitError(
            f"unknown error kind {kind!r}; expected one of {', '.join(sorted(_SPEC_KINDS))}"
        )
    cls, fields = _SPEC_KINDS[kind]
    given: dict[str, int] = {}
    if rest.strip():
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in fields:
                raise CircuitError(f"bad error spec field {part.strip()!r} for kind {kind!r}")
            if key in given:
                raise CircuitError(f"error spec field {key!r} is given twice")
            try:
                given[key] = int(value)
            except ValueError:
                raise CircuitError(f"error spec field {key!r} needs an integer, got {value!r}")
    missing = [f for f in fields if f not in given]
    if missing:
        raise CircuitError(f"error spec {kind!r} is missing fields: {', '.join(missing)}")
    return cls(*(given[f] for f in fields))


# ---------------------------------------------------------------------------
# Circuit files
# ---------------------------------------------------------------------------
#
# UTF-8 JSON: {"qubits": m, "gates": [{"kind": "H", "target": i} |
# {"kind": "R", "n": n, "target": i, "control": j}, ...]}, array order is
# application order.  serialize_circuit writes one gate per line so circuit
# diffs stay readable; parse_circuit accepts any JSON layout.


# Gate kind -> its integer fields, named as in GateInstance, in the order
# they are checked and written.
_GATE_FIELDS = {"H": ("target",), "R": ("n", "target", "control")}


def parse_circuit(text: str) -> CircuitDescription:
    """Parse a circuit file; round-trips with serialize_circuit.  Only what JSON
    can get wrong is checked here; the value rules are the constructors'."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting past the recursion limit
        raise CircuitParseError(str(exc)) from None
    if not isinstance(doc, dict):
        raise CircuitParseError("top level must be a JSON object")
    if "qubits" not in doc:
        raise CircuitParseError('missing "qubits" field')
    m = doc["qubits"]
    if type(m) is not int:
        raise CircuitParseError(f"m must be >= 1, got {m!r}")
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise CircuitParseError('missing or non-array "gates" field')
    gates = []
    for ordinal, entry in enumerate(raw_gates, start=1):
        if not isinstance(entry, dict):
            raise CircuitParseError(f"gate {ordinal}: not an object")
        kind = entry.get("kind")
        fields = _GATE_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise CircuitParseError(f"gate {ordinal}: kind must be \"H\" or \"R\", got {kind!r}")
        extra = entry.keys() - fields - {"kind"}
        if extra:
            raise CircuitParseError(f"gate {ordinal}: unexpected fields {sorted(extra)}")
        for field in fields:
            if type(entry.get(field)) is not int:
                raise CircuitParseError(f"gate {ordinal}: field {field!r} must be an integer")
        try:
            gates.append(GateInstance(**entry))
        except CircuitError as exc:
            raise CircuitParseError(f"gate {ordinal}: {exc}") from None
    try:
        return CircuitDescription(m, tuple(gates))
    except CircuitError as exc:
        raise CircuitParseError(str(exc)) from None


def serialize_circuit(c: CircuitDescription) -> str:
    """Deterministic canonical text for a circuit (one gate per line)."""
    lines = [f'{{"qubits": {c.m}, "gates": [']
    last = len(c.gates) - 1
    for k, g in enumerate(c.gates):
        if g.kind == "H":
            entry = f'{{"kind": "H", "target": {g.target}}}'
        else:
            entry = f'{{"kind": "R", "n": {g.n}, "target": {g.target}, "control": {g.control}}}'
        lines.append(entry + ("," if k != last else ""))
    lines.append("]}")
    return "\n".join(lines) + "\n"
