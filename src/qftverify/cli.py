"""qftv: command-line front end.

Exit codes: 0 verified, 1 property violation, 2 type error, 3 usage or I/O
error, 4 solver failure or unresolved verdict.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from . import oracle as oracle_mod
from . import smt as smt_mod
from .checker import TYPE_ERROR, UNRESOLVED, VERIFIED, VIOLATION, CheckerConfig, verify_circuit
from .circuit import (
    CircuitError,
    generate_qft,
    inject_error,
    parse_circuit,
    parse_error_spec,
    serialize_circuit,
)
from .abstraction import CircuitTypeError, bits_to_string

EXIT_VERIFIED = 0
EXIT_VIOLATION = 1
EXIT_TYPE_ERROR = 2
EXIT_USAGE = 3
EXIT_SOLVER = 4

_OVERALL_EXIT = {
    VERIFIED: EXIT_VERIFIED,
    VIOLATION: EXIT_VIOLATION,
    TYPE_ERROR: EXIT_TYPE_ERROR,
    UNRESOLVED: EXIT_SOLVER,
}


def _read_circuit(path: str):
    if path == "-":
        return parse_circuit(sys.stdin.read())
    return parse_circuit(Path(path).read_text(encoding="utf-8"))


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_generate(args) -> int:
    _write_text(args.output, serialize_circuit(generate_qft(args.qubits)))
    return EXIT_VERIFIED


def _cmd_inject(args) -> int:
    circuit = _read_circuit(args.input)
    for spec_text in args.error:
        circuit = inject_error(circuit, parse_error_spec(spec_text))
    _write_text(args.output, serialize_circuit(circuit))
    return EXIT_VERIFIED


def _cmd_verify(args) -> int:
    smt_mod.check_timeout(args.timeout, "--timeout")
    if args.backend == "weights":
        ignored = [flag for flag, value in (("--solver", args.solver), ("--timeout", args.timeout))
                   if value is not None]
        if ignored:
            raise ValueError(f"--backend weights does not take {', '.join(ignored)}")
    circuit = _read_circuit(args.input)
    solver = None
    if args.backend == "smt":
        solver = smt_mod.solver_from_env(args.solver)
        if solver is None:
            print("error: no usable solver; set QFTV_SOLVER or pass --solver", file=sys.stderr)
            return EXIT_SOLVER
        if args.timeout is not None:
            solver = smt_mod.SolverConfig(command=solver.command, timeout_s=args.timeout)
    cfg = CheckerConfig(exhaustive=args.exhaustive, solver=solver)
    report = verify_circuit(circuit, cfg)
    if args.json:
        print(report.to_json())
    else:
        if report.overall == TYPE_ERROR:
            print(f"type error: {report.type_error_message} [{report.type_error_kind}]")
        for rec in report.records:
            v = rec.verdict
            line = f"qubit {v.qubit}: {v.status} ({rec.backend}, {rec.millis:.3f} ms)"
            if v.counterexample is not None:
                witness = "".join(str(v.counterexample[k]) for k in sorted(v.counterexample))
                expected = bits_to_string(v.expected)
                actual = "(control wire)" if v.actual is None else bits_to_string(v.actual)
                line += f" inputs b1..b{report.qubits}={witness} expected {expected} actual {actual}"
            if v.detail:
                line += f" [{v.detail}]"
            print(line)
        print(f"overall: {report.overall}")
    return _OVERALL_EXIT[report.overall]


def _cmd_oracle_check(args) -> int:
    circuit = _read_circuit(args.input)
    report = oracle_mod.cross_check(circuit, cap=args.max_qubits)
    if args.json:
        print(report.to_json())
    else:
        for check in report.checks:
            bits = "".join(str(b) for b in check.bits)
            status = "ok" if check.product_ok and check.reference_ok else "MISMATCH"
            extra = ""
            if check.failing_qubits:
                extra = f" qubits {list(check.failing_qubits)}"
            print(f"input {bits}: {status} (max deviation {check.max_deviation:.2e}){extra}")
        print(f"overall: {'ok' if report.ok else 'mismatch'} "
              f"(abstraction {'ok' if report.abstraction_ok else 'MISMATCH'}, "
              f"reference {'ok' if report.reference_ok else 'mismatch'})")
    return EXIT_VERIFIED if report.ok else EXIT_VIOLATION


def _cmd_emit_smt(args) -> int:
    circuit = _read_circuit(args.input)
    _write_text(args.output, smt_mod.emit_smt2(circuit, args.qubit))
    return EXIT_VERIFIED


def _parse_list(flag: str, text: str, item=str) -> list:
    """The comma-separated values of ``flag``, of which there must be one."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError(f"{flag} names nothing: {text!r}")
    try:
        return list(map(item, parts))
    except ValueError:
        raise CircuitError(f"expected a comma-separated integer list, got {text!r}")


def _cmd_bench(args) -> int:
    if args.position_sweep is not None:
        ignored = [flag for flag, value in (("--sizes", args.sizes), ("--scenarios", args.scenarios),
                                            ("--huge", args.huge)) if value not in (None, False)]
        if ignored:
            raise ValueError(f"--position-sweep does not take {', '.join(ignored)}")
        if args.positions is None:
            m = args.position_sweep
            step = max(1, (m - 1) // 7)
            positions = sorted({min(m - 1, 1 + k * step) for k in range(8)})
        else:
            positions = _parse_list("--positions", args.positions, int)
        result = bench_mod.run_position_sweep(
            args.position_sweep, positions, repeats=args.repeats,
            measure_memory=not args.no_memory,
        )
    elif args.positions is not None:
        raise ValueError("--positions needs --position-sweep")
    else:
        if args.sizes is None:
            raise ValueError("bench needs --sizes or --position-sweep")
        cfg = bench_mod.BenchConfig(
            sizes=_parse_list("--sizes", args.sizes, int),
            scenarios=(list(bench_mod.TABLE_SCENARIOS) if args.scenarios is None
                       else _parse_list("--scenarios", args.scenarios)),
            repeats=args.repeats,
            allow_huge=args.huge,
            measure_memory=not args.no_memory,
        )
        result = bench_mod.run_bench(cfg)
    if args.csv:
        bench_mod.write_csv(result, args.csv)
    if args.plot_data:
        bench_mod.write_plot_data(result, args.plot_data)
    for rec in result.records:
        print(f"m={rec.qubits} gates={rec.gates} {rec.scenario}: {rec.verdict} "
              f"time={rec.time_s:.6f}s mem={rec.mem_mb:.3f}MB [{rec.backend}]")
    if result.truncated:
        print(f"truncated: skipped sizes {result.skipped_sizes} (use --huge)", file=sys.stderr)
    return EXIT_VERIFIED


class _UsageError(Exception):
    """A command line argparse rejected; the message includes the usage line."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a bad command line, which would read as a type error
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qftv",
        description="Verify quantum Fourier transform circuits via rotation abstraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the canonical m-qubit circuit")
    p.add_argument("--qubits", "-m", type=int, required=True)
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("inject", help="apply error mutations to a circuit file")
    p.add_argument("--error", action="append", required=True, metavar="SPEC",
                   help="kind:key=value,... e.g. incorrect-gate:target=1,ordinal=1,wrong-n=3 "
                        "(repeatable; applied in order)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("verify", help="check the correctness property per qubit")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--backend", choices=("weights", "smt"), default="weights")
    p.add_argument("--exhaustive", action="store_true",
                   help="check every qubit instead of stopping at the first failure")
    p.add_argument("--json", action="store_true")
    p.add_argument("--solver", default=None,
                   help="solver command (overridden by QFTV_SOLVER); used by the smt backend")
    p.add_argument("--timeout", type=float, default=None, help="per-obligation solver timeout (s)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle-check", help="cross-validate against dense simulation (small m)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--max-qubits", type=int, default=oracle_mod.SIM_CAP_DEFAULT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("bench", help="benchmark sweep with CSV output")
    p.add_argument("--sizes", default=None, help="comma-separated qubit counts")
    p.add_argument("--scenarios", default=None,
                   help=f"comma-separated from {','.join(bench_mod.TABLE_SCENARIOS)}")
    p.add_argument("--csv", default=None)
    p.add_argument("--plot-data", default=None)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--huge", action="store_true",
                   help="allow sizes beyond the desk-scale cap (slow; streams gates)")
    p.add_argument("--position-sweep", type=int, default=None, metavar="M",
                   help="instead of a size sweep, move a gate error across qubits of an M-qubit circuit")
    p.add_argument("--positions", default=None, help="positions for --position-sweep")
    p.add_argument("--no-memory", action="store_true", help="skip the memory measurement pass")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("emit-smt", help="write one qubit's solver obligation")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--qubit", type=int, required=True)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_emit_smt)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CircuitTypeError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except (CircuitError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
