"""Formal verification of quantum Fourier transform circuits.

The verification question is reduced from amplitude vectors to quantifier
free Boolean reasoning: on basis inputs every gate acts as a rotation by a
negative power of two of a full turn, so each qubit's final state abstracts
to a width-m fractional bit-vector of symbolic bits.  A circuit is correct
exactly when qubit i's vector equals <.b(i) b(i+1) .. b(m) 0..0>, which is
decided per qubit either structurally (canonical algebraic normal form) or
by an external bit-vector solver.  A dense statevector oracle cross-checks
the abstraction at small sizes.
"""

from .boolexpr import (
    AnfBudgetError,
    DEFAULT_TERM_BUDGET,
    FALSE,
    TRUE,
    and_,
    anf_normalize,
    evaluate,
    sorted_monomials,
    var,
)
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
    format_error_spec,
    generate_qft,
    inject_error,
    iter_qft_gates,
    parse_circuit,
    parse_error_spec,
    qft_gate_count,
    serialize_circuit,
)
from .abstraction import (
    AbstractOutputs,
    CircuitTypeError,
    SymbolicBitVector,
    TypeErrorKind,
    eval_bits,
    run_abstract,
    typecheck,
)
from .checker import (
    CheckerConfig,
    QubitRecord,
    QubitVerdict,
    VerificationReport,
    check_qubit,
    find_counterexample,
    target_vector,
    verify_circuit,
    verify_lines,
)
from .smt import (
    ModelAssignment,
    SolverConfig,
    SolverResult,
    emit_smt2,
    invoke_solver,
    parse_model,
    solver_from_env,
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

__version__ = "0.1.0"
