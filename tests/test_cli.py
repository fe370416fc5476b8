import json
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

    def test_smt_backend_without_solver_is_solver_error(self, qft3_file, capsys, monkeypatch):
        monkeypatch.setenv("QFTV_SOLVER", "definitely-not-a-solver-xyz")
        assert main(["verify", "-i", str(qft3_file), "--backend", "smt"]) == 4


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
