"""Quantifier-free bit-vector obligations and external solver driving.

Each qubit's correctness obligation is emitted as a standalone SMT-LIB2 file
over the logic of fixed-width bit-vectors: inputs are Boolean constants, the
line's output term is built gate by gate (if-then-else on the control, fixed
width addition for the modular accumulate), and the file asserts that output
and target differ.  ``unsat`` therefore means the qubit is correct, and a
``sat`` model is a counterexample assignment.

Each addend is a one-hot written as a binary ``concat`` of indexed zeros and
``#b1``, as in ``(concat (_ bv0 n-1) (concat #b1 (_ bv0 m-n)))``, so a gate
costs O(log m) text and an obligation O(gates * log m): q1 at m = 10,000 is
about 1.8 MB, where m-character ``#b`` literals would take about 220 MB.
The declarations and one-hots of one width are built once and shared by
every qubit's file.

Solvers are driven strictly as child processes; nothing links against a
solver library.  The command is SolverConfig's; a sat model is read for
the width its caller gives, and the checker re-validates it before it
reports a violation.
"""

from __future__ import annotations

import functools
import re
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .abstraction import Line, _check_line, group_gates_by_line
from .circuit import CircuitDescription

__all__ = [
    "SolverConfig",
    "SolverResult",
    "ModelAssignment",
    "ModelParseError",
    "MAX_TIMEOUT_S",
    "check_timeout",
    "emit_smt2",
    "invoke_solver",
    "parse_model",
    "write_obligations",
    "solve_line",
]

class ModelParseError(Exception):
    """Solver output did not contain a readable model."""


# the longest wait subprocess can honour: it reads the solver's output
# through poll or epoll, whose timeout is a C int of milliseconds
MAX_TIMEOUT_S = (2 ** 31 - 1) / 1000


def check_timeout(timeout_s: float | None, name: str = "timeout_s") -> None:
    """Raise ValueError unless ``timeout_s`` is None or in (0, MAX_TIMEOUT_S]."""
    if timeout_s is not None and not 0 < timeout_s <= MAX_TIMEOUT_S:
        raise ValueError(f"{name} must be a positive number of seconds "
                         f"up to {MAX_TIMEOUT_S}, got {timeout_s}")


@dataclass(frozen=True)
class SolverConfig:
    """How to launch the solver: a command string (shell-style split) that
    receives the obligation file path as its last argument."""

    command: str = "z3"
    timeout_s: float | None = None

    def __post_init__(self):
        if not shlex.split(self.command):
            raise ValueError("the solver command is empty")
        check_timeout(self.timeout_s)


@dataclass(frozen=True)
class ModelAssignment:
    """Total assignment parsed from a model; ``defaulted`` lists variables the
    solver omitted (don't-cares), which default to false."""

    values: dict[int, int]
    defaulted: tuple[int, ...]


@dataclass(frozen=True)
class SolverResult:
    """Classified outcome of one solver run.

    status is "unsat", "sat", "unknown", or "failure".
    """

    status: str
    model: ModelAssignment | None = None
    reason: str = ""
    wall_s: float = 0.0


@functools.lru_cache(maxsize=1)
def _shared_text(m: int) -> tuple[str, str, tuple[str, ...]]:
    """What every obligation of width m shares: the logic and b1..bm
    declarations, the zero term, and entry n-1 the one-hot with only bit n
    (1-based from the left) set."""
    header = "\n".join(["(set-logic QF_BV)",
                        *(f"(declare-const b{k} Bool)" for k in range(1, m + 1))])
    hots = []
    for n in range(1, m + 1):
        # SMT-LIB's concat is binary: (_ bv0 n-1), then #b1 and (_ bv0 m-n)
        hot = "#b1" if n == m else f"(concat #b1 (_ bv0 {m - n}))"
        hots.append(hot if n == 1 else f"(concat (_ bv0 {n - 1}) {hot})")
    return header, f"(_ bv0 {m})", tuple(hots)


def _emit_obligation(line: Line, i: int, m: int) -> str:
    """SMT-LIB2 text for line i, given as group_gates_by_line gives it.
    Deterministic, byte-stable."""
    if line is None:
        raise ValueError(f"line {i} never receives an H gate; it has no bit-vector obligation")
    orders, controls = line
    _check_line(m, i, orders, controls)
    header, zero, hots = _shared_text(m)
    sort = f"(_ BitVec {m})"
    out = [header, f"(define-fun s0 () {sort} (ite b{i} {hots[0]} {zero}))"]
    for step, (n, k) in enumerate(zip(orders, controls), start=1):
        out.append(f"(define-fun s{step} () {sort} "
                   f"(bvadd s{step - 1} (ite b{k} {hots[n - 1]} {zero})))")
    out.append(f"(define-fun actual () {sort} s{len(orders)})")
    # left-nested binary concats, written in one pass
    pieces = [f"(ite b{k} #b1 #b0)" for k in range(i, m + 1)]
    if i > 1:
        pieces.append(f"(_ bv0 {i - 1})")
    target = "(concat " * (len(pieces) - 1) + pieces[0] + "".join(f" {p})" for p in pieces[1:])
    out.append(f"(define-fun target () {sort} {target})")
    out.append("(assert (not (= actual target)))")
    out.append("(check-sat)")
    out.append("(get-model)")
    return "\n".join(out) + "\n"


def emit_smt2(c: CircuitDescription, i: int) -> str:
    """Emit qubit i's obligation for a type-correct circuit.

    Type errors are decided before any solver sees the circuit, so this
    raises CircuitTypeError rather than encoding an ill-typed line; a qubit
    outside 1..m raises IndexError before the circuit is typed.
    """
    if not 1 <= i <= c.m:
        raise IndexError(f"qubit {i} out of range 1..{c.m}")
    return _emit_obligation(group_gates_by_line(c)[i - 1], i, c.m)


def write_obligations(c: CircuitDescription, directory: Path | str) -> list[Path]:
    """Write q<i>.smt2 for every qubit that has an obligation; returns paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, line in enumerate(group_gates_by_line(c), start=1):
        if line is None:
            continue
        path = directory / f"q{i}.smt2"
        path.write_text(_emit_obligation(line, i, c.m), encoding="utf-8")
        paths.append(path)
    return paths


_MODEL_ENTRY = re.compile(
    r"\(\s*define-fun\s+b(\d+)\s*\(\s*\)\s*Bool\s+(true|false)\s*\)", re.S
)
_STATUS_LINE = re.compile(r"^\s*(sat|unsat|unknown)\s*$", re.M)


def parse_model(output: str, m: int) -> ModelAssignment:
    """Extract a total assignment for b1..bm from solver model output.

    Tolerant of whitespace and entry order.  Variables the solver omitted
    default to false and are flagged.  Raises ModelParseError when no model
    entries are present at all.
    """
    values: dict[int, int] = {}
    for match in _MODEL_ENTRY.finditer(output):
        index = int(match.group(1))
        if 1 <= index <= m:
            values[index] = 1 if match.group(2) == "true" else 0
    if not values:
        raise ModelParseError("no model entries found in solver output")
    defaulted = tuple(k for k in range(1, m + 1) if k not in values)
    for k in defaulted:
        values[k] = 0
    return ModelAssignment(values=values, defaulted=defaulted)


def invoke_solver(cfg: SolverConfig, obligation_path: Path | str, m: int) -> SolverResult:
    """Run the solver on one obligation file over b1..bm and classify its verdict.

    Timeouts are enforced at the process level (solver-agnostic) and reported
    as Unknown("timeout").  A solver that cannot be launched, or output that
    cannot be classified, becomes a failure result rather than an exception;
    bytes that are not UTF-8 are read as replacement characters.
    """
    argv = shlex.split(cfg.command) + [str(obligation_path)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, encoding="utf-8", errors="replace",
                              timeout=cfg.timeout_s)
    except OSError as exc:
        return SolverResult("failure", reason=f"cannot launch solver: {exc}",
                            wall_s=time.perf_counter() - start)
    except subprocess.TimeoutExpired:
        return SolverResult("unknown", reason="timeout", wall_s=time.perf_counter() - start)
    wall = time.perf_counter() - start
    match = _STATUS_LINE.search(proc.stdout)
    if match is None:
        head = (proc.stderr or proc.stdout).strip().splitlines()
        return SolverResult(
            "failure",
            reason=f"exit {proc.returncode}: {head[0] if head else 'no output'}",
            wall_s=wall,
        )
    status = match.group(1)
    if status == "unsat":
        return SolverResult("unsat", wall_s=wall)
    if status == "unknown":
        return SolverResult("unknown", reason="solver returned unknown", wall_s=wall)
    try:
        model = parse_model(proc.stdout, m)
    except ModelParseError as exc:
        return SolverResult("failure", reason=str(exc), wall_s=wall)
    return SolverResult("sat", model=model, wall_s=wall)


def solve_line(cfg: SolverConfig, line: Line, i: int, m: int) -> SolverResult:
    """Run the solver on qubit i's obligation for its well-typed line
    (which must have an H), in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="qftv-smt-") as tmp:
        path = Path(tmp) / f"q{i}.smt2"
        path.write_text(_emit_obligation(line, i, m), encoding="utf-8")
        return invoke_solver(cfg, path, m)
