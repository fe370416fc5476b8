"""Formal verification of quantum Fourier transform circuits.

The verification question is reduced from amplitude vectors to quantifier
free Boolean reasoning: on basis inputs every gate acts as a rotation by a
negative power of two of a full turn, so each qubit's final state abstracts
to a width-m fractional bit-vector of symbolic bits.  A circuit is correct
exactly when qubit i's vector equals <.b(i) b(i+1) .. b(m) 0..0>, which is
decided per qubit either structurally (the phase is linear in the inputs,
so each input's weight is compared with its target) or by an external
bit-vector solver.  A dense statevector oracle cross-checks
the abstraction at small sizes.
"""

from .circuit import (
    CircuitDescription,
    CircuitError,
    CircuitParseError,
    DuplicateH,
    ErrorInjectionError,
    ErrorSpec,
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
from .abstraction import CircuitTypeError, TypeErrorKind
from .checker import (
    CheckerConfig,
    QubitRecord,
    QubitVerdict,
    VerificationReport,
    verify_circuit,
    verify_lines,
    verify_stream,
)
from .smt import (
    ModelAssignment,
    SolverConfig,
    SolverResult,
    emit_smt2,
    invoke_solver,
    parse_model,
    write_obligations,
)
from .oracle import (
    OracleReport,
    bit_reversed,
    cross_check,
    per_qubit_phase,
    qft_reference,
    simulate,
)
from .bench import (
    BenchConfig,
    BenchRecord,
    BenchResult,
    run_bench,
    run_position_sweep,
    scenario_error_spec,
    write_csv,
    write_plot_data,
)
# the benchmark's worker imports these from the package; see boolexpr
from .boolexpr import (
    anf_normalize,
    check_qubit,
    eval_bits,
    find_counterexample,
    run_abstract,
    target_vector,
    typecheck,
)

__version__ = "0.1.0"
