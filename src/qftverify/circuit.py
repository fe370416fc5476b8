"""Circuit IR, the canonical QFT generator, the fault injector, and file I/O.

A circuit is a program-ordered sequence of gates over ``m`` qubit lines.
Only two gate kinds exist: H on a target line, and a controlled rotation
R(n) of angle 2*pi/2**n on a target line.  A rotation's control is the
index of a qubit line.  The checker reads it as "the value this line carried
before any gate touched it"; that reading is sound only when the rotation
comes before the control line's H, which the wire typing does not yet
enforce (ROADMAP item 1).  Qubit and gate indices are 1-based throughout.

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
import io
import json
import re
from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import eq
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar, Union

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
    "write_circuit",
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
        that the columns hold legal gates, so every value is in 0..m.  A
        column that is already an array of m's typecode is kept, not copied,
        so the caller hands it over."""
        c = object.__new__(cls)
        c._fill(m, targets, orders, controls)
        return c

    def _fill(self, m: int, targets: Iterable[int], orders: Iterable[int],
              controls: Iterable[int]) -> None:
        code = _typecode(m)
        object.__setattr__(self, "m", m)
        for name, column in (("targets", targets), ("orders", orders), ("controls", controls)):
            if not (type(column) is array and column.typecode == code):
                column = array(code, column)
            object.__setattr__(self, name, column)

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
    _typecode(m)
    return m * (m + 1) // 2


@functools.lru_cache(maxsize=1)
def _naturals(m: int) -> array:
    # never mutated: every canonical line is two slices of it, which copy
    # its bytes and build no int
    return array(_typecode(m), range(m + 1))


def qft_line(m: int, i: int) -> tuple[array, array]:
    """Line i's rotations in the canonical circuit, as (orders, controls):
    R(n) controlled by line i+n-1, for n = 2..m-i+1.  The line's H precedes
    them.  Each is an array of m's column typecode, as group_gates_by_line
    gives a line."""
    naturals = _naturals(m)
    return naturals[2:m - i + 2], naturals[i + 1:m + 1]


def iter_qft_gates(m: int) -> Iterator[GateInstance]:
    """Stream the canonical circuit's gates without materializing them.

    Qubit by qubit in ascending order: H on line i, then R(2)..R(m-i+1)
    targeting line i with controls i+1..m.  Controls are taken from lines
    whose own H has not yet appeared, so every control reads an initial value
    even under literal program-order execution.  m is checked at the call,
    as generate_qft checks it, not at the first ``next()``.
    """
    _typecode(m)

    def gates() -> Iterator[GateInstance]:
        for i in range(1, m + 1):
            yield GateInstance("H", i)
            for n, control in zip(*qft_line(m, i)):
                yield GateInstance("R", i, n=n, control=control)

    return gates()


def _qft_circuit(m: int, lines: Iterable[int]) -> CircuitDescription:
    """The canonical circuit's gates on ``lines``, line by line, filled into
    array columns from qft_line."""
    code = _typecode(m)
    targets, orders, controls = array(code), array(code), array(code)
    for i in lines:
        line_orders, line_controls = qft_line(m, i)
        targets += array(code, (i,)) * (len(line_orders) + 1)
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
# UTF-8 JSON: an object of the qubit count and the gates in application
# order, each gate an object of its kind and that kind's _GATE_FIELDS.
# write_circuit writes one gate per line so circuit diffs stay readable, a
# block of gates at a time, at C speed (_circuit_chunks); serialize_circuit
# gives the same text whole.
# The reader decodes exactly that layout, byte for byte, at C speed, a
# block at a time as it reads, and with no object per gate (_canonical),
# and hands each block to its consumer: parse_circuit joins the blocks into
# columns, and checker.verify_stream groups them as they come.  Every other
# layout, and a canonical file that breaks a rule, goes through json.loads,
# which accepts any JSON layout and gives every message (_read).


# Gate kind -> its integer fields, named as in GateInstance, in the order
# they are checked and written.
_GATE_FIELDS = {"H": ("target",), "R": ("n", "target", "control")}

# (kind, key count) of every well-formed gate object.
_GATE_SHAPES = {(kind, len(fields) + 1) for kind, fields in _GATE_FIELDS.items()}

# The layout serialize_circuit writes: _HEAD with m, each gate's line from
# _LINES joined by ",", then _TAIL.  A line opens with its kind (_OPEN) and
# writes each field as _FIELD.  Every value is an integer >= 1 written
# without a leading zero, so at most _MAX_M_DIGITS long in a legal file.
_HEAD = '{"qubits": %d, "gates": ['
_OPEN = '\n{"kind": "%s"'
_FIELD = ', "%s": %%d'
_LINES = {kind: _OPEN % kind + "".join(_FIELD % f for f in fields) + "}"
          for kind, fields in _GATE_FIELDS.items()}
_TAIL = "\n]}\n"
_MAX_M_DIGITS = len(str(2 ** 64 - 1))
_VALUE = rb"[1-9][0-9]{0,%d}" % (_MAX_M_DIGITS - 1)


def _layout(template: str, value: bytes = _VALUE) -> bytes:
    """The pattern of the bytes ``template`` writes, each %d written as ``value``."""
    return re.escape(template.encode()).replace(b"%d", value)


_HEAD_LAYOUT = re.compile(_layout(_HEAD, b"(%b)" % _VALUE))
_LINE_LAYOUT = b"(?:%b)" % b"|".join(map(_layout, _LINES.values()))
_BLOCK_LAYOUT = re.compile(b"%b(?:,%b)*" % (_LINE_LAYOUT, _LINE_LAYOUT))  # lines joined by ","
_ALL_BUT_VALUES = bytes(sorted(set(range(256)) - set(b"0123456789,HR")))
# this much of a file is read and decoded at once; _BLOCK_LAYOUT's repeat
# keeps a backtracking frame per gate, about 6 MiB for a 1 MiB block
_BLOCK_BYTES = 1 << 16
# the longest gate line, each value _MAX_M_DIGITS long
_LONGEST_LINE = max(len(line) + line.count("%d") * (_MAX_M_DIGITS - len("%d"))
                    for line in _LINES.values())


class _NotCanonical(Exception):
    """The file is not byte for byte what serialize_circuit writes for a
    circuit of legal gates."""


# A block's columns, (targets, orders, controls), as arrays of m's typecode.
_Block = tuple[array, array, array]
_T = TypeVar("_T")


def parse_circuit(source: str | bytes | BinaryIO) -> CircuitDescription:
    """Parse a circuit file; round-trips with serialize_circuit.

    ``source`` is the file's text, its bytes, or the file itself opened for
    binary reading and seekable, read from where it stands.  Text is read
    as its UTF-8 bytes, and bytes are read as a UTF-8 text file is: strictly
    decoded, with universal newlines.  A file in exactly the layout
    serialize_circuit writes whose gates are all legal is decoded a block
    at a time as it is read, without json.loads (_canonical), and the
    blocks are joined into the circuit's columns.  Any other file is read
    whole from where it stood and goes through json.loads, and only what
    JSON can get wrong is checked here; the value rules are the
    constructors'.  A file of legal gates is accepted by whole-column
    checks alone; any other file is walked gate by gate, which raises the
    first rule it breaks.
    """
    source = _byte_stream(source)  # frees the text if the caller let it go
    return _read(source, _join_blocks, lambda circuit: circuit)


def _byte_stream(source: str | bytes | BinaryIO) -> BinaryIO:
    """``source``, what parse_circuit takes, as a binary stream."""
    try:
        source = source.encode() if isinstance(source, str) else source
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise CircuitParseError(str(exc)) from None
    return io.BytesIO(source) if isinstance(source, bytes) else source


def _read(stream: BinaryIO, consume: Callable[[int, Iterator[_Block]], _T],
          fallback: Callable[[CircuitDescription], _T]) -> _T:
    """``consume(m, blocks)`` of the circuit file that is the rest of
    ``stream`` if it is in the canonical layout, where ``blocks`` yields
    its decoded blocks (_canonical); else ``fallback`` of the circuit that
    json.loads reads from it.

    A file that _canonical declines, at its header or in any later block,
    is read again from where it stood; ``consume`` is then given up, and
    its state is freed before the file is read again.
    """
    start = stream.tell()
    try:
        return consume(*_canonical(stream))
    except _NotCanonical:
        pass
    stream.seek(start)
    return fallback(_parse_json(stream))


def _join_blocks(m: int, blocks: Iterator[_Block]) -> CircuitDescription:
    """The circuit whose columns are ``blocks`` joined in order."""
    code = _typecode(m)
    columns = array(code), array(code), array(code)
    for block in blocks:
        for column, part in zip(columns, block):
            column += part
    return CircuitDescription._from_columns(m, *columns)


def _parse_json(stream: BinaryIO) -> CircuitDescription:
    """The circuit of the rest of ``stream``, read whole through json.loads."""
    try:
        text = stream.read().decode()
    except UnicodeDecodeError as exc:
        raise CircuitParseError(str(exc)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
        raise CircuitParseError(f"m must be an integer, got {m!r}")
    raw_gates = doc.get("gates")
    if not isinstance(raw_gates, list):
        raise CircuitParseError('missing or non-array "gates" field')
    try:
        circuit = _parse_columns(m, raw_gates)
        return _parse_gates(m, raw_gates) if circuit is None else circuit
    except CircuitError as exc:
        raise CircuitParseError(str(exc)) from None


def _canonical(stream: BinaryIO) -> tuple[int, Iterator[_Block]]:
    """m and the decoded blocks of the rest of ``stream`` if it is byte for
    byte what serialize_circuit writes for a circuit of legal gates; the
    header is read and matched here, so a file in another layout costs
    almost nothing, and the blocks raise _NotCanonical where the file
    breaks the layout or holds an illegal gate.

    The blocks are _BLOCK_BYTES read at a time and cut before the last ","
    that ends a line; the gate lines before the cut are decoded
    (_decode_block) and the part after it is carried into the next read, so
    the file is never held whole, and each block's columns are freed once
    the consumer lets them go.  What is left at the end of the file must be
    the last gate line and _TAIL, so no "," may trail the gates.  A stretch
    with no ",\\n" longer than any gate line is declined at once, not
    carried into the next read.  Each block's columns must pass
    _legal_columns, as _parse_columns' must, so a file whose blocks all
    decode gives the circuit that json.loads and _parse_columns give.
    """
    head = stream.read(len(_HEAD) - len("%d") + _MAX_M_DIGITS)
    match = _HEAD_LAYOUT.match(head)
    if not match or int(match[1]) >= 1 << 64:
        raise _NotCanonical
    m = int(match[1])
    return m, _blocks(stream, m, bytearray(head[match.end():]))


def _blocks(stream: BinaryIO, m: int, block: bytearray) -> Iterator[_Block]:
    """The decoded blocks of _canonical, ``block`` the bytes already read."""
    tail = _TAIL.encode()
    gates = False
    while block is not None:
        size = len(block)
        block += stream.read(_BLOCK_BYTES)
        if len(block) > size:
            cut = block.rfind(b",\n")
            if cut < 0:
                if len(block) > _LONGEST_LINE + len(tail):
                    raise _NotCanonical
                continue
            rest = block[cut + 1:]
            del block[cut:]
        elif not block.endswith(tail):
            raise _NotCanonical
        elif block == tail and not gates:  # no gate at all
            return
        else:
            rest = None
            del block[-len(tail):]
        yield _decode_block(m, block)
        gates = True
        block = rest


def _decode_block(m: int, block: bytearray) -> _Block:
    """The columns of the gates of ``block``, whole gate lines joined by
    ",", if the block is laid out as serialize_circuit lays it out
    (_BLOCK_LAYOUT) and its gates are legal; else raise _NotCanonical.

    The block is decoded by bytes methods, with no object per gate: kept to
    its digits, commas and kind letters, with each H given an order 0 and a
    control 0, it loads as a JSON array of integers.  Each gate is then
    three values (order, target, control), except that an H's target sits
    in the control's slot.  No written value is 0, so the zero orders are
    the H gates.  The block's lists are freed when this returns.
    """
    if not _BLOCK_LAYOUT.fullmatch(block):
        raise _NotCanonical
    flat = block.translate(None, _ALL_BUT_VALUES).replace(b"H,", b"0,0,")
    values = json.loads(b"[%b]" % flat.replace(b"R,", b""))
    targets, orders, controls = values[1::3], values[::3], values[2::3]
    h_count = orders.count(0)
    k = -1
    for _ in range(h_count):  # an H's target was read into its control's slot
        k = orders.index(0, k + 1)
        targets[k], controls[k] = controls[k], 0
    if not _legal_columns(m, h_count, targets, orders, controls):
        raise _NotCanonical
    code = _typecode(m)
    columns = array(code), array(code), array(code)
    for column, part in zip(columns, (targets, orders, controls)):
        column.fromlist(part)  # faster than array(code, part)
    return columns


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
    if not (set(map(type, chain(targets, orders, controls))) <= {int}
            and 0 <= min(orders, default=0) and 0 <= min(controls, default=0)
            and _legal_columns(m, kinds.count("H"), targets, orders, controls)):
        return None
    return CircuitDescription._from_columns(m, targets, orders, controls)


def _legal_columns(m: int, h_count: int, targets: list, orders: list, controls: list) -> bool:
    """Whether columns of non-negative integers, ``h_count`` of their gates
    H, are all legal gates of an m-qubit circuit: only an H's order and
    control are 0, every target is at least 1, every value is at most m, and
    no control equals its target."""
    return (orders.count(0) == h_count == controls.count(0)
            and 1 <= min(targets, default=1)
            and max(max(targets, default=0), max(orders, default=0),
                    max(controls, default=0)) <= m
            and not any(map(eq, targets, controls)))


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


# (column, text of a value, text of 0) in the order a line writes its
# columns, R's fields: 0 is an H's order and control.  The order opens the
# line with its kind, and the control closes it with "}" and the "," that
# joins it to the next, so an H and an R make the same three lookups.
_COLUMN_TEXTS = (("orders", (_OPEN % "R" + _FIELD % "n").encode(), (_OPEN % "H").encode()),
                 ("targets", (_FIELD % "target").encode(), None),
                 ("controls", (_FIELD % "control" + "},").encode(), b"},"))
# gates written at once, about 0.9 MiB of text at m = 1024
_WRITE_GATES = 1 << 14


def _circuit_chunks(c: CircuitDescription) -> Iterator[bytes]:
    """serialize_circuit's bytes for ``c``, _WRITE_GATES gates at a time.

    Each block's text is made at C speed: each column of the block is
    mapped through a table of the text of each distinct value it holds
    (_COLUMN_TEXTS), so no table is larger than the block, whatever m is.
    The "," after the last gate is dropped.
    """
    yield (_HEAD % c.m).encode()
    gates = c.gate_count
    for start in range(0, gates, _WRITE_GATES):
        lookups = []
        for name, text, zero in _COLUMN_TEXTS:
            column = getattr(c, name)[start:start + _WRITE_GATES]
            table = {value: text % value if value else zero for value in set(column)}
            lookups.append(map(table.__getitem__, column))
        block = b"".join(chain.from_iterable(zip(*lookups)))
        yield block if start + _WRITE_GATES < gates else block[:-1]
    yield _TAIL.encode()


def serialize_circuit(c: CircuitDescription) -> str:
    """Deterministic canonical text for a circuit (one gate per line): the
    text write_circuit writes, held whole."""
    return b"".join(_circuit_chunks(c)).decode()


def write_circuit(c: CircuitDescription, stream: BinaryIO) -> None:
    """Write serialize_circuit's text for ``c`` to ``stream``, opened for
    binary writing, as UTF-8 bytes a block of gates at a time, so the text
    is never held whole.  parse_circuit reads such a stream back."""
    for chunk in _circuit_chunks(c):
        stream.write(chunk)
