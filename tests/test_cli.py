import io
import json
import stat
import subprocess
import sys

import pytest

from qftverify.circuit import generate_qft, serialize_circuit
from qftverify.cli import main
from qftverify.smt import emit_smt2


@pytest.fixture
def qft3_file(tmp_path):
    path = tmp_path / "qft3.json"
    path.write_text(serialize_circuit(generate_qft(3)))
    return path


class TestGenerateVerify:
    def test_generate_then_verify_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["generate", "--qubits", "4", "-o", str(out)]) == 0
        assert main(["verify", "-i", str(out)]) == 0
        assert "overall: verified" in capsys.readouterr().out

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--qubits", "1", "-o", "-"]) == 0
        assert '"kind": "H"' in capsys.readouterr().out

    def test_verify_json_output(self, qft3_file, capsys):
        assert main(["verify", "-i", str(qft3_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "verified"
        assert len(doc["per_qubit"]) == 3

    def test_verify_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_circuit(generate_qft(3))))
        assert main(["verify", "-i", "-"]) == 0
        assert "overall: verified" in capsys.readouterr().out


class TestInject:
    def test_gate_error_gives_violation_exit(self, qft3_file, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = main(["inject", "--error", "incorrect-gate:target=1,ordinal=1,wrong-n=3",
                     "-i", str(qft3_file), "-o", str(out)])
        assert code == 0
        assert main(["verify", "-i", str(out)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_missing_h_gives_type_error_exit(self, qft3_file, tmp_path, capsys):
        out = tmp_path / "bad.json"
        main(["inject", "--error", "missing-h:target=2", "-i", str(qft3_file), "-o", str(out)])
        assert main(["verify", "-i", str(out)]) == 2
        assert "type error" in capsys.readouterr().out

    def test_type_error_json(self, qft3_file, tmp_path, capsys):
        out = tmp_path / "bad.json"
        main(["inject", "--error", "duplicate-h:target=2", "-i", str(qft3_file), "-o", str(out)])
        assert main(["verify", "-i", str(out), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "type_error" and doc["per_qubit"] == []
        assert doc["type_error"] == {"kind": "duplicate-h", "line": 2, "gate": 5,
                                     "message": "gate 5 (line 2): second H gate on line 2"}

    def test_composed_errors_apply_in_order(self, qft3_file, tmp_path):
        out = tmp_path / "bad.json"
        code = main(["inject",
                     "--error", "incorrect-gate:target=1,ordinal=1,wrong-n=3",
                     "--error", "incorrect-control:target=1,ordinal=2,wrong-control=2",
                     "-i", str(qft3_file), "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert '"n": 3, "target": 1, "control": 2' in text

    def test_bad_error_spec_is_usage_error(self, qft3_file, capsys):
        assert main(["inject", "--error", "melt:target=1", "-i", str(qft3_file), "-o", "-"]) == 3
        assert "unknown error kind" in capsys.readouterr().err

    def test_noop_mutation_is_usage_error(self, qft3_file, capsys):
        code = main(["inject", "--error", "incorrect-gate:target=1,ordinal=1,wrong-n=2",
                     "-i", str(qft3_file), "-o", "-"])
        assert code == 3


class TestOracleCheck:
    def test_canonical_ok(self, qft3_file, capsys):
        assert main(["oracle-check", "-i", str(qft3_file)]) == 0
        assert "overall: ok" in capsys.readouterr().out

    def test_mutant_mismatch(self, qft3_file, tmp_path, capsys):
        out = tmp_path / "bad.json"
        main(["inject", "--error", "incorrect-gate:target=1,ordinal=1,wrong-n=3",
              "-i", str(qft3_file), "-o", str(out)])
        assert main(["oracle-check", "-i", str(out)]) == 1
        text = capsys.readouterr().out
        assert "abstraction ok" in text and "reference mismatch" in text

    def test_json_output(self, qft3_file, capsys):
        assert main(["oracle-check", "-i", str(qft3_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["canonical"]
        assert [entry["bits"] for entry in doc["inputs"]] == [f"{j:03b}" for j in range(8)]

    def test_cap_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        main(["generate", "--qubits", "6", "-o", str(path)])
        assert main(["oracle-check", "-i", str(path), "--max-qubits", "4"]) == 3


class TestEmitSmt:
    def test_matches_library_output(self, qft3_file, tmp_path):
        out = tmp_path / "q2.smt2"
        assert main(["emit-smt", "-i", str(qft3_file), "--qubit", "2", "-o", str(out)]) == 0
        assert out.read_text() == emit_smt2(generate_qft(3), 2)

    def test_type_error_exit(self, qft3_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        main(["inject", "--error", "missing-h:target=2", "-i", str(qft3_file), "-o", str(bad)])
        assert main(["emit-smt", "-i", str(bad), "--qubit", "1", "-o", "-"]) == 2

    @pytest.mark.parametrize("qubit", ["0", "4"])
    def test_qubit_out_of_range_outranks_type_error(self, qft3_file, tmp_path, capsys, qubit):
        # a bad --qubit is a usage error whatever the file holds, as verify's flags are
        bad = tmp_path / "bad.json"
        main(["inject", "--error", "missing-h:target=2", "-i", str(qft3_file), "-o", str(bad)])
        assert main(["emit-smt", "-i", str(bad), "--qubit", qubit, "-o", "-"]) == 3
        assert f"qubit {qubit} out of range 1..3" in capsys.readouterr().err


class TestBench:
    def test_small_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "8,12", "--scenarios", "correct,gate-2",
                     "--csv", str(out), "--repeats", "1", "--no-memory"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "qubits,gates,scenario,verdict,backend,time_s,mem_mb"
        assert len(lines) == 5

    def test_position_sweep_flag(self, capsys):
        code = main(["bench", "--position-sweep", "12", "--positions", "1,6,11",
                     "--repeats", "1", "--no-memory"])
        assert code == 0
        assert "incorrect-gate@q6" in capsys.readouterr().out


class TestErrors:
    def test_usage_errors_exit_3(self, qft3_file, capsys):
        assert main(["verify"]) == 3
        assert main(["verify", "-i", str(qft3_file), "--workers", "2"]) == 3
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        # the weights always decide, so there is no fallback mode
        assert main(["verify", "-i", str(qft3_file), "--backend", "auto"]) == 3
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        assert "--exhaustive" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["verify", "-i", "/nonexistent/file.json"]) == 3

    def test_bad_circuit_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"qubits": 0, "gates": []}')
        assert main(["verify", "-i", str(path)]) == 3
        assert "m must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"qubits": 2, "gates": [{"kind": ["H"], "target": 1}]}',
        '{"qubits": 2, "gates": [{"kind": {}, "target": 1}]}',
        "[" * 200_000 + "]" * 200_000,
    ], ids=["list-kind", "object-kind", "deep-nesting"])
    def test_hostile_file_is_usage_error(self, tmp_path, capsys, text):
        # exit 1 would read as a property violation
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert main(["verify", "-i", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["inject", "--error", "incorrect-gate:target=1,target=2,ordinal=1,wrong-n=3",
          "-i", "{file}", "-o", "-"], "field 'target' is given twice"),
        (["bench", "--positions", "1,2"], "--positions needs --position-sweep"),
        (["bench", "--position-sweep", "8", "--sizes", "8"], "does not take --sizes"),
        (["bench", "--position-sweep", "8", "--scenarios", "correct"], "does not take --scenarios"),
        (["bench", "--position-sweep", "8", "--huge"], "does not take --huge"),
        (["bench", "--position-sweep", "1"], "needs m >= 3, got 1"),
        (["bench", "--position-sweep", "2"], "needs m >= 3, got 2"),
        (["verify", "-i", "{file}", "--timeout", "0"], "--timeout must be a positive"),
        (["verify", "-i", "{file}", "--timeout", "-1"], "--timeout must be a positive"),
        # an unreadable input shows that the timeout is checked first
        (["verify", "-i", "/nonexistent/qft.json", "--backend", "smt", "--solver", "z3",
          "--timeout", "inf"], "--timeout must be a positive number of seconds up to"),
        (["verify", "-i", "/nonexistent/qft.json", "--backend", "smt", "--solver", "z3",
          "--timeout", "1e300"], "got 1e+300"),
        (["verify", "-i", "{file}", "--solver", "z3"], "--backend weights does not take --solver"),
        (["verify", "-i", "{file}", "--backend", "weights", "--timeout", "5"],
         "--backend weights does not take --timeout"),
        (["verify", "-i", "{file}", "--backend", "anf"], "invalid choice: 'anf'"),
        (["bench"], "bench needs --sizes or --position-sweep"),
        (["bench", "--sizes", ","], "--sizes names nothing: ','"),
        (["bench", "--sizes", "8", "--scenarios", ","], "--scenarios names nothing: ','"),
        (["bench", "--position-sweep", "8", "--positions", ","], "--positions names nothing: ','"),
        (["bench", "--sizes", "8", "--repeats", "0"], "repeats must be at least 1, got 0"),
        (["bench", "--position-sweep", "8", "--repeats", "-1"], "repeats must be at least 1, got -1"),
    ], ids=["repeated-spec-field", "positions-alone", "sweep-sizes", "sweep-scenarios",
            "sweep-huge", "sweep-m1", "sweep-m2", "timeout-0", "timeout-negative",
            "timeout-inf", "timeout-1e300", "anf-solver", "anf-timeout", "backend-anf",
            "bench-no-sizes", "bench-empty-sizes", "bench-empty-scenarios",
            "sweep-empty-positions", "repeats-0", "sweep-repeats-negative"])
    def test_rejected_arguments_exit_3(self, qft3_file, capsys, argv, message):
        # a flag the command would ignore or cannot honour is a usage error
        assert main([str(qft3_file) if a == "{file}" else a for a in argv]) == 3
        captured = capsys.readouterr()
        err = captured.err
        if err.startswith("usage: "):
            # argparse's own rejection: its usage block, then one error line
            err = err.partition(f"\nqftv {argv[0]}: ")[2]
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and captured.out == ""

    def test_smt_backend_without_solver_is_solver_error(self, qft3_file, capsys, monkeypatch):
        monkeypatch.setenv("QFTV_SOLVER", "definitely-not-a-solver-xyz")
        assert main(["verify", "-i", str(qft3_file), "--backend", "smt"]) == 4

    @pytest.mark.parametrize("script", [b"#!/bin/sh\nprintf 'unsat\\377\\n'\n", b"echo unsat\n"],
                             ids=["non-utf8-output", "no-shebang"])
    def test_solver_failure_exits_4(self, qft3_file, tmp_path, capsys, monkeypatch, script):
        solver = tmp_path / "solver"
        solver.write_bytes(script)
        solver.chmod(solver.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("QFTV_SOLVER", str(solver))
        assert main(["verify", "-i", str(qft3_file), "--backend", "smt"]) == 4
        assert "overall: unresolved" in capsys.readouterr().out


class TestConsoleScript:
    def test_module_invocation_round_trip(self, tmp_path):
        circuit = tmp_path / "c.json"
        run = subprocess.run(
            [sys.executable, "-m", "qftverify.cli", "generate", "--qubits", "3", "-o", str(circuit)],
            capture_output=True, text=True,
        )
        assert run.returncode == 0
        run = subprocess.run(
            [sys.executable, "-m", "qftverify.cli", "verify", "-i", str(circuit)],
            capture_output=True, text=True,
        )
        assert run.returncode == 0
        assert "overall: verified" in run.stdout
