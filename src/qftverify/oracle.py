"""Dense statevector reference for small circuits.

This is the independent Hilbert-space oracle: it executes circuits on basis
inputs with concrete gate unitaries and cross-validates the rotation
abstraction against (a) the per-qubit phases predicted by the per-control
weights the checker decides with and (b) the textbook transform formula.
The simulation shares no code with the checker beyond the circuit IR;
cross_check calls group_gates_by_line, _line_taps and _weight only because
they are what it checks.  A rotation is the real two-qubit controlled
phase, so a circuit whose rotation reads a control line after that line's
H, which the checker reads at its initial bit, fails the product check.

Basis state indexing puts qubit 1 in the most significant position: input
bits (b1, .., bm) prepare the state with index sum(b_i * 2**(m-i)).  numpy
is imported by the functions that use it, so importing the package does not
load it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .abstraction import _line_taps, _weight, group_gates_by_line
from .circuit import CircuitDescription, generate_qft

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SIM_CAP_DEFAULT",
    "AMPLITUDE_TOL",
    "simulate",
    "qft_reference",
    "per_qubit_phase",
    "bit_reversed",
    "cross_check",
    "InputCheck",
    "OracleReport",
]

SIM_CAP_DEFAULT = 12
AMPLITUDE_TOL = 1e-9


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise ValueError(f"{m} qubits exceeds the simulation cap of {cap} "
                         f"({2 ** m} amplitudes); raise the cap explicitly if intended")


def _check_bits(input_bits: Sequence[int], m: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in input_bits)
    if len(bits) != m or any(b not in (0, 1) for b in bits):
        raise ValueError(f"need {m} basis input bits, got {input_bits!r}")
    return bits


def simulate(c: CircuitDescription, input_bits: Sequence[int],
             cap: int = SIM_CAP_DEFAULT) -> np.ndarray:
    """Statevector after running ``c`` on the basis input ``input_bits``.

    A rotation multiplies the amplitudes in which both its target and its
    control line are 1.  Norm is asserted to stay within 1e-9 of one after
    every gate.
    """
    import numpy as np

    h_matrix = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    m = c.m
    _check_cap(m, cap)
    bits = _check_bits(input_bits, m)
    index = int("".join(str(b) for b in bits), 2)
    state = np.zeros(2 ** m, dtype=complex)
    state[index] = 1.0
    tensor = state.reshape((2,) * m)
    for target, n, control in zip(c.targets, c.orders, c.controls):
        axis = target - 1
        if not n:  # an H
            tensor = np.moveaxis(np.tensordot(h_matrix, tensor, axes=([1], [axis])), 0, axis)
        else:
            sel: list = [slice(None)] * m
            sel[axis] = sel[control - 1] = 1
            tensor[tuple(sel)] *= np.exp(2j * np.pi / (2 ** n))
        norm_sq = float(np.sum(np.abs(tensor) ** 2))
        if abs(norm_sq - 1.0) > 1e-9:
            raise AssertionError(f"unitarity violated: |state|^2 = {norm_sq}")
    return tensor.reshape(-1)


def qft_reference(j: int, m: int, cap: int = SIM_CAP_DEFAULT) -> np.ndarray:
    """The transform formula applied directly: amplitude at k is
    exp(2*pi*i*j*k/N)/sqrt(N) with N = 2**m."""
    import numpy as np

    _check_cap(m, cap)
    n_points = 2 ** m
    if not 0 <= j < n_points:
        raise ValueError(f"input index {j} out of range 0..{n_points - 1}")
    k = np.arange(n_points)
    return np.exp(2j * np.pi * j * k / n_points) / math.sqrt(n_points)


def per_qubit_phase(input_bits: Sequence[int], i: int) -> Fraction:
    """Phase fraction 0.b(i)b(i+1)..b(m) carried by qubit i of a correct
    transform on this basis input (exact rational, denominator 2**(m-i+1))."""
    m = len(input_bits)
    bits = _check_bits(input_bits, m)
    if not 1 <= i <= m:
        raise IndexError(f"qubit {i} out of range 1..{m}")
    tail = bits[i - 1:]
    numerator = int("".join(str(b) for b in tail), 2)
    return Fraction(numerator, 2 ** len(tail))


def bit_reversed(state: np.ndarray, m: int) -> np.ndarray:
    """Permute amplitudes so index bits read in reverse order."""
    import numpy as np

    return np.ascontiguousarray(
        state.reshape((2,) * m).transpose(tuple(range(m - 1, -1, -1)))
    ).reshape(-1)


@dataclass(frozen=True)
class InputCheck:
    """Oracle result for one basis input.

    product_ok: the simulated state matches the product of the per-qubit
    factors predicted by the abstraction (abstraction fidelity).
    reference_ok: the simulated state matches the bit-reversed transform
    formula (circuit correctness).  A faithful abstraction of a wrong circuit
    shows product_ok true and reference_ok false.
    """

    bits: tuple[int, ...]
    product_ok: bool
    reference_ok: bool
    max_deviation: float
    failing_qubits: tuple[int, ...]


@dataclass
class OracleReport:
    qubits: int
    gate_count: int
    canonical: bool
    checks: list[InputCheck]

    @property
    def abstraction_ok(self) -> bool:
        return all(c.product_ok for c in self.checks)

    @property
    def reference_ok(self) -> bool:
        return all(c.reference_ok for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.abstraction_ok and self.reference_ok

    @property
    def max_deviation(self) -> float:
        return max((c.max_deviation for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "qubits": self.qubits,
            "gates": self.gate_count,
            "canonical": self.canonical,
            "ok": self.ok,
            "abstraction_ok": self.abstraction_ok,
            "reference_ok": self.reference_ok,
            "max_deviation": self.max_deviation,
            "inputs": [
                {
                    "bits": "".join(str(b) for b in c.bits),
                    "product_ok": c.product_ok,
                    "reference_ok": c.reference_ok,
                    "max_deviation": c.max_deviation,
                    "failing_qubits": list(c.failing_qubits),
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _per_qubit_deviation(state: np.ndarray, factors: list[np.ndarray], m: int) -> list[float]:
    """How far each qubit's marginal is from its expected product factor.

    For a product state, the weight of the qubit's |1> slice and the overlap
    between its |0> and |1> slices recover |f1|^2 and conj(f0)*f1; comparing
    those against the expected factor localizes a mismatch without any
    global-phase ambiguity.
    """
    import numpy as np

    tensor = state.reshape((2,) * m)
    devs = []
    for i in range(m):
        zero = np.take(tensor, 0, axis=i).reshape(-1)
        one = np.take(tensor, 1, axis=i).reshape(-1)
        weight = float(np.sum(np.abs(one) ** 2))
        overlap = complex(np.sum(np.conj(zero) * one))
        f0, f1 = factors[i]
        dev = abs(weight - abs(f1) ** 2) + abs(overlap - np.conj(f0) * f1)
        devs.append(float(dev))
    return devs


def cross_check(c: CircuitDescription, cap: int = SIM_CAP_DEFAULT) -> OracleReport:
    """Validate the abstraction against dense simulation on every basis input.

    For each input: (a) the simulated state must equal the product of
    per-qubit factors (|0> + exp(2*pi*i*phase)|1>)/sqrt(2), where qubit i's
    phase is sum_k b_k * c_k mod 1 over the weights c_k of its line (a line
    that stays Control contributes its basis factor instead); and (b) the
    simulated state is compared against the bit-reversed transform formula,
    which a correct circuit must match.  All comparisons are per-amplitude within
    AMPLITUDE_TOL.  Type-incorrect circuits raise CircuitTypeError.
    """
    import numpy as np

    m = c.m
    _check_cap(m, cap)
    modulus = 2 ** m
    weights = [None if line is None else
               {k: _weight(m, ns) for k, ns in _line_taps(m, i, *line).items()}
               for i, line in enumerate(group_gates_by_line(c), start=1)]
    canonical = c == generate_qft(m)
    checks: list[InputCheck] = []
    for j in range(2 ** m):
        bits = tuple((j >> (m - 1 - t)) & 1 for t in range(m))
        factors: list[np.ndarray] = []
        for i, weight in enumerate(weights, start=1):
            if weight is None:
                factors.append(np.array([1.0 - bits[i - 1], bits[i - 1]], dtype=complex))
            else:
                phase = Fraction(sum(w for k, w in weight.items() if bits[k - 1]) % modulus, modulus)
                factors.append(np.array(
                    [1.0, np.exp(2j * np.pi * float(phase))], dtype=complex) / math.sqrt(2.0))
        expected = factors[0]
        for factor in factors[1:]:
            expected = np.kron(expected, factor)
        state = simulate(c, bits, cap=cap)
        product_dev = float(np.max(np.abs(state - expected)))
        product_ok = product_dev <= AMPLITUDE_TOL
        failing: tuple[int, ...] = ()
        if not product_ok:
            devs = _per_qubit_deviation(state, factors, m)
            failing = tuple(i + 1 for i, d in enumerate(devs) if d > AMPLITUDE_TOL)
        reference = bit_reversed(qft_reference(j, m, cap=cap), m)
        ref_dev = float(np.max(np.abs(state - reference)))
        reference_ok = ref_dev <= AMPLITUDE_TOL
        max_dev = max(product_dev, ref_dev)
        checks.append(InputCheck(
            bits=bits, product_ok=product_ok, reference_ok=reference_ok,
            max_deviation=max_dev, failing_qubits=failing,
        ))
    return OracleReport(qubits=m, gate_count=c.gate_count, canonical=canonical, checks=checks)
