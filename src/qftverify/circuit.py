"""Circuit IR, the canonical QFT generator, the fault injector, and file I/O.

A circuit is a program-ordered sequence of gates over ``m`` qubit lines.
Only two gate kinds exist: H on a target line, and a controlled rotation
R(n) of angle 2*pi/2**n on a target line.  Rotation controls are *indices of
initial qubit lines*: a control always means "the value this line carried
before any gate touched it", never the line's evolved state.  Qubit and gate
indices are 1-based throughout.

A circuit is held as three integer columns in program order: each gate's
target, rotation order and control, with an H stored as order 0 and control
0.  The columns are ``array.array``s of the narrowest unsigned type that
holds m, so a circuit costs a few bytes per gate and no object per gate.
GateInstance is the one-gate view of a column entry: ``CircuitDescription``
is built from gates, and its ``gates`` view builds them anew on every
access, but parsing, generating, injecting, grouping, verifying and
exporting a circuit never makes one.
"""

from __future__ import annotations

import functools
import json
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import eq
from typing import Iterable, Iterator, Union

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


def _check_gate(kind, target, n, control) -> None:
    """The gate rules: raise CircuitError unless the fields form an H or an R."""
    if kind == "R":
        if n is None:
            raise CircuitError(f"R gate needs a rotation order n >= 1, got {n}")
        if control is None:
            raise CircuitError("R gate needs a control qubit")
        if type(n) is not int or type(target) is not int or type(control) is not int:
            raise _not_an_integer(n=n, target=target, control=control)
        if n < 1:
            raise CircuitError(f"R gate needs a rotation order n >= 1, got {n}")
        if control == target:
            raise CircuitError(f"control equals target (qubit {target})")
    elif kind == "H":
        if n is not None or control is not None:
            raise CircuitError("H gate takes no rotation order and no control")
        if type(target) is not int:
            raise _not_an_integer(target=target)
    else:
        raise CircuitError(f"unknown gate kind {kind!r}")
    if target < 1:
        raise CircuitError(f"target must be >= 1, got {target}")
    if control is not None and control < 1:
        raise CircuitError(f"control must be >= 1, got {control}")


def _not_an_integer(**fields) -> CircuitError:
    name, value = next((name, value) for name, value in fields.items() if type(value) is not int)
    return CircuitError(f"field {name!r} must be an integer, got {value!r}")


def _check_ranges(m: int, ordinal: int, target: int, n: int | None, control: int | None) -> None:
    """The circuit rules for gate ``ordinal``: its indices lie in 1..m."""
    if target > m:
        raise CircuitError(f"gate {ordinal}: target {target} out of range 1..{m}")
    if control is not None and control > m:
        raise CircuitError(f"gate {ordinal}: control {control} out of range 1..{m}")
    if n is not None and n > m:
        raise CircuitError(f"gate {ordinal}: rotation order {n} exceeds qubit count {m}")


@dataclass(frozen=True, slots=True)
class GateInstance:
    """One gate: ``kind`` is "H" or "R"; R carries a rotation order and a control.

    Every index is an ``int``.  For R gates ``n >= 1`` (order 1, a pi
    rotation, is legal even though the canonical generator never emits it)
    and ``control != target``.  Range checks against the qubit count happen
    at CircuitDescription level.
    """

    kind: str
    target: int
    n: int | None = None
    control: int | None = None

    def __post_init__(self):
        _check_gate(self.kind, self.target, self.n, self.control)


# (bound, typecode): the unsigned array types, narrowest first.  A circuit's
# columns take the first type whose bound exceeds m; every value is in 0..m.
_COLUMN_TYPES = [(1 << 8 * array(code).itemsize, code) for code in "BHIQ"]


def _typecode(m) -> str:
    """The column typecode of an m-qubit circuit; CircuitError unless m is an
    integer >= 1 that some typecode holds."""
    if type(m) is not int:
        raise CircuitError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise CircuitError(f"m must be >= 1, got {m}")
    for bound, code in _COLUMN_TYPES:
        if m < bound:
            return code
    raise CircuitError(f"m must be below 2**64, got {m}")


@dataclass(frozen=True, slots=True, init=False)
class CircuitDescription:
    """An ``m``-qubit circuit as three integer columns in program order.

    Gate k+1 is ``targets[k]``, ``orders[k]`` and ``controls[k]``; an H is
    order 0 and control 0.  Each column is an ``array.array`` of the
    narrowest unsigned typecode that holds m.  ``CircuitDescription(m,
    gates)`` checks m and the range of every gate.  ``gates`` is a view:
    it builds the GateInstance tuple anew on every access and is never
    cached, so a circuit holds no gate object.
    """

    m: int
    targets: array
    orders: array
    controls: array

    def __init__(self, m: int, gates: Iterable[GateInstance]):
        gates = tuple(gates)
        _typecode(m)  # m is checked before any gate is compared with it
        for ordinal, gate in enumerate(gates, start=1):
            _check_ranges(m, ordinal, gate.target, gate.n, gate.control)
        self._fill(m, [g.target for g in gates], [g.n or 0 for g in gates],
                   [g.control or 0 for g in gates])

    @classmethod
    def _from_columns(cls, m: int, targets: Iterable[int], orders: Iterable[int],
                      controls: Iterable[int]) -> CircuitDescription:
        """The column constructor.  It checks m only: the caller vouches
        that the columns hold legal gates, so every value is in 0..m."""
        c = object.__new__(cls)
        c._fill(m, targets, orders, controls)
        return c

    def _fill(self, m: int, targets: Iterable[int], orders: Iterable[int],
              controls: Iterable[int]) -> None:
        code = _typecode(m)
        for name, value in (("m", m), ("targets", array(code, targets)),
                            ("orders", array(code, orders)), ("controls", array(code, controls))):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        # arrays are unhashable; one m means one typecode, so bytes compare as values
        return hash((self.m, self.targets.tobytes(), self.orders.tobytes(), self.controls.tobytes()))

    @property
    def gates(self) -> tuple[GateInstance, ...]:
        """The gates in program order, built on each access."""
        return tuple(GateInstance("R", target, n=n, control=control) if n else GateInstance("H", target)
                     for target, n, control in zip(self.targets, self.orders, self.controls))

    @property
    def gate_count(self) -> int:
        return len(self.targets)


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
        yield GateInstance("H", i)
        for n, control in zip(*qft_line(m, i)):
            yield GateInstance("R", i, n=n, control=control)


def _qft_circuit(m: int, lines: Iterable[int]) -> CircuitDescription:
    """The canonical circuit's gates on ``lines``, line by line, built as
    columns from qft_line."""
    targets: list[int] = []
    orders: list[int] = []
    controls: list[int] = []
    for i in lines:
        line_orders, line_controls = qft_line(m, i)
        targets += repeat(i, len(line_orders) + 1)
        orders.append(0)
        orders += line_orders
        controls.append(0)
        controls += line_controls
    return CircuitDescription._from_columns(m, targets, orders, controls)


def generate_qft(m: int) -> CircuitDescription:
    """The canonical, correct m-qubit circuit."""
    _typecode(m)  # m is checked before qft_line sizes anything by it
    return _qft_circuit(m, range(1, m + 1))


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


def _line_gates(c: CircuitDescription, line: int) -> Iterator[int]:
    """Indices of the gates that target ``line``, in program order."""
    return compress(count(), map(eq, c.targets, repeat(line)))


def _line_h_index(c: CircuitDescription, line: int) -> int:
    for k in _line_gates(c, line):
        if not c.orders[k]:
            return k
    raise ErrorInjectionError(f"line {line} has no H gate to mutate")


def _line_r_index(c: CircuitDescription, line: int, ordinal: int) -> int:
    seen = 0
    for k in _line_gates(c, line):
        if c.orders[k]:
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
    columns = targets, orders, controls = c.targets[:], c.orders[:], c.controls[:]
    try:
        if isinstance(spec, (MissingH, DuplicateH, WrongHInput)):
            k = _line_h_index(c, spec.target)
        else:
            k = _line_r_index(c, spec.target, spec.ordinal)
        gate = None  # the changed gate as (target, order, control), if one changes
        if isinstance(spec, IncorrectGateOrder):
            if not 1 <= spec.wrong_n <= c.m:
                raise ErrorInjectionError(f"rotation order {spec.wrong_n} out of range 1..{c.m}")
            if spec.wrong_n == orders[k]:
                raise ErrorInjectionError(f"gate already has order {orders[k]}; mutation is a no-op")
            gate = (targets[k], spec.wrong_n, controls[k])
        elif isinstance(spec, IncorrectControl):
            if spec.wrong_control == controls[k]:
                raise ErrorInjectionError(
                    f"gate already controlled by {controls[k]}; mutation is a no-op")
            gate = (targets[k], orders[k], spec.wrong_control)
        elif isinstance(spec, MissingH):
            for column in columns:
                del column[k]
        elif isinstance(spec, DuplicateH):
            for column in columns:
                column.insert(k + 1, column[k])
        elif spec.wrong_source == spec.target:
            raise ErrorInjectionError("source equals the correct line; mutation is a no-op")
        else:
            gate = (spec.wrong_source, orders[k], controls[k])
        if gate is not None:
            # the constructors' rules, checked before the gate enters a column
            target, n, control = gate
            fields = (target, n, control) if n else (target, None, None)
            _check_gate("R" if n else "H", *fields)
            _check_ranges(c.m, k + 1, *fields)
            targets[k], orders[k], controls[k] = gate
        return CircuitDescription._from_columns(c.m, *columns)
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
    r_per_line: dict[int, list[tuple[int, int]]] = {}
    h_lines: set[int] = set()
    for target, n, control in zip(c.targets, c.orders, c.controls):
        if n:
            r_per_line.setdefault(target, []).append((n, control))
        else:
            h_lines.add(target)
    for line in sorted(r_per_line):
        for ordinal, (n, control) in enumerate(r_per_line[line], start=1):
            for wrong_n in range(1, m + 1):
                if wrong_n != n:
                    yield IncorrectGateOrder(line, ordinal, wrong_n)
            for wrong_control in range(1, m + 1):
                if wrong_control not in (control, line):
                    yield IncorrectControl(line, ordinal, wrong_control)
            for wrong_source in range(1, m + 1):
                if wrong_source not in (line, control):
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

# (kind, key count) of every well-formed gate object.
_GATE_SHAPES = {(kind, len(fields) + 1) for kind, fields in _GATE_FIELDS.items()}


def parse_circuit(text: str) -> CircuitDescription:
    """Parse a circuit file; round-trips with serialize_circuit.

    Only what JSON can get wrong is checked here; the value rules are the
    constructors'.  A file of legal gates is accepted by whole-column checks
    alone; any other file is walked gate by gate, which raises the first
    rule it breaks.
    """
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
    try:
        circuit = _parse_columns(m, raw_gates)
        return _parse_gates(m, raw_gates) if circuit is None else circuit
    except CircuitError as exc:
        raise CircuitParseError(str(exc)) from None


def _parse_columns(m: int, entries: list) -> CircuitDescription | None:
    """The circuit of ``entries`` if whole-column checks find them all legal
    gates of an m-qubit circuit, else None.

    Each check runs over a column at C speed: every entry is an object of
    one of the _GATE_SHAPES, every field present is an int (``bool`` and
    ``None`` are not), every R has an order and a control (an absent one
    reads as 0, so the zeros of each column number the H gates exactly),
    all values are in range, and no control equals its target.
    """
    try:
        kinds = list(map(dict.get, entries, repeat("kind")))
        if not set(zip(kinds, map(len, entries))) <= _GATE_SHAPES:
            return None
    except TypeError:  # an entry that is not an object, or a kind that cannot be hashed
        return None
    targets = list(map(dict.get, entries, repeat("target")))
    orders = list(map(dict.get, entries, repeat("n"), repeat(0)))
    controls = list(map(dict.get, entries, repeat("control"), repeat(0)))
    h_count = kinds.count("H")
    if not (set(map(type, chain(targets, orders, controls))) <= {int}
            and orders.count(0) == h_count == controls.count(0)
            and 1 <= min(targets, default=1) and max(targets, default=0) <= m
            and 0 <= min(orders, default=0) and max(orders, default=0) <= m
            and 0 <= min(controls, default=0) and max(controls, default=0) <= m
            and not any(map(eq, targets, controls))):
        return None
    return CircuitDescription._from_columns(m, targets, orders, controls)


def _parse_gates(m: int, entries: list) -> CircuitDescription:
    """``entries`` walked gate by gate through the constructors, which raise
    the first rule the file breaks, located by gate ordinal."""
    gates = []
    for ordinal, entry in enumerate(entries, start=1):
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
    return CircuitDescription(m, gates)


def serialize_circuit(c: CircuitDescription) -> str:
    """Deterministic canonical text for a circuit (one gate per line)."""
    entries = [f'{{"kind": "R", "n": {n}, "target": {target}, "control": {control}}}' if n
               else f'{{"kind": "H", "target": {target}}}'
               for target, n, control in zip(c.targets, c.orders, c.controls)]
    lines = [f'{{"qubits": {c.m}, "gates": [', *(entry + "," for entry in entries[:-1]),
             *entries[-1:], "]}"]
    return "\n".join(lines) + "\n"
