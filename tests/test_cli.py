import io
import json
import os
import resource
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from qftverify import circuit as circuit_mod
from qftverify.circuit import (
    DuplicateH,
    IncorrectGateOrder,
    generate_qft,
    inject_error,
    qft_gate_count,
    serialize_circuit,
)
from qftverify.cli import main
from qftverify.smt import emit_smt2
from helpers import CONTROL_AFTER_ITS_H

MINISOLVER = shlex.join([sys.executable, str(Path(__file__).parent / "minisolver.py")])


# Circuit file bytes and the message qftv gives them, read as UTF-8 text is:
# strictly decoded, with universal newlines.
UTF8_CASES = pytest.mark.parametrize("data,message", [
    (serialize_circuit(generate_qft(3)).encode("utf-16"),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"\xef\xbb\xbf" + serialize_circuit(generate_qft(3)).encode(),
     "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (b'{"qubits": 1, "gates": [\n{"kind": "H", "target": 1\xff}\n]}\n',
     "'utf-8' codec can't decode byte 0xff in position 50: invalid start byte"),
    (b'{"qubits": 2,\r"gates": [}', "line 2, column 11: Expecting value"),
], ids=["utf-16", "utf-8-bom", "invalid-utf-8", "cr-line-ends"])


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

    @pytest.mark.parametrize("m", [1, 3, 300])
    def test_stdout_gets_the_file_bytes_after_its_text(self, tmp_path, monkeypatch, m):
        # a buffered text layer over stdout's bytes: text written before the
        # circuit is flushed ahead of it
        path = tmp_path / "c.json"
        assert main(["generate", "--qubits", str(m), "-o", str(path)]) == 0
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
        sys.stdout.write("before\n")
        assert main(["generate", "--qubits", str(m), "-o", "-"]) == 0
        assert raw.getvalue() == b"before\n" + path.read_bytes()
        assert path.read_text(encoding="utf-8") == serialize_circuit(generate_qft(m))

    def test_verify_json_output(self, qft3_file, capsys):
        assert main(["verify", "-i", str(qft3_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] == "verified"
        assert len(doc["per_qubit"]) == 3

    def test_verify_reads_stdin(self, monkeypatch, capsys):
        text = serialize_circuit(generate_qft(3))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        assert main(["verify", "-i", "-"]) == 0
        assert "overall: verified" in capsys.readouterr().out

    @pytest.mark.parametrize("layout", ["canonical", "compact"])
    def test_verify_reads_a_pipe(self, tmp_path, capsys, layout):
        # a pipe cannot seek back to its start for the json.loads route, so
        # it is read whole before it is parsed
        c = generate_qft(3)
        text = serialize_circuit(c)
        if layout == "compact":
            text = json.dumps(json.loads(text))
        pipe = tmp_path / "pipe.json"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        assert main(["verify", "-i", str(pipe)]) == 0
        writer.join(timeout=10)
        assert "overall: verified" in capsys.readouterr().out


class TestInject:
    def test_gate_error_gives_violation_exit(self, qft3_file, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = main(["inject", "--error", "incorrect-gate:target=1,ordinal=1,wrong-n=3",
                     "-i", str(qft3_file), "-o", str(out)])
        assert code == 0
        assert main(["verify", "-i", str(out)]) == 1
        # the witness lists its true inputs; bits stop at the last set one
        assert "inputs b2=1 (others 0) expected 0.01 actual 0.001" in capsys.readouterr().out

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

    def test_inject_to_stdout_writes_the_file_bytes(self, qft3_file, tmp_path, capsysbinary):
        spec = "incorrect-gate:target=1,ordinal=1,wrong-n=3"
        out = tmp_path / "bad.json"
        assert main(["inject", "--error", spec, "-i", str(qft3_file), "-o", str(out)]) == 0
        assert main(["inject", "--error", spec, "-i", str(qft3_file), "-o", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()
        assert b'{"kind": "R", "n": 3, "target": 1, "control": 2}' in out.read_bytes()

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

    def test_control_after_its_h_mismatch(self, tmp_path, capsys):
        # the simulated rotation reads the superposed control, not its initial bit
        path = tmp_path / "c.json"
        path.write_text(serialize_circuit(CONTROL_AFTER_ITS_H))
        assert main(["oracle-check", "-i", str(path)]) == 1
        assert "abstraction MISMATCH" in capsys.readouterr().out

    def test_json_output(self, qft3_file, capsys):
        assert main(["oracle-check", "-i", str(qft3_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["canonical"]
        assert [entry["bits"] for entry in doc["inputs"]] == [f"{j:03b}" for j in range(8)]

    def test_cap_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        main(["generate", "--qubits", "6", "-o", str(path)])
        assert main(["oracle-check", "-i", str(path), "--max-qubits", "4"]) == 3


class TestSolver:
    def test_correct_circuit_verified(self, qft3_file, capsys):
        assert main(["verify", "-i", str(qft3_file), "--solver", MINISOLVER, "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert out.count("verified (smt,") == 3 and "overall: verified" in out

    def test_mutant_refuted_with_counterexample(self, qft3_file, tmp_path, capsys):
        out = tmp_path / "bad.json"
        main(["inject", "--error", "incorrect-gate:target=1,ordinal=1,wrong-n=3",
              "-i", str(qft3_file), "-o", str(out)])
        assert main(["verify", "-i", str(out), "--solver", MINISOLVER, "--timeout", "60",
                     "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        bad = doc["per_qubit"][0]
        assert doc["overall"] == "violation" and bad["backend"] == "smt"
        # the model's true inputs, each among b1..b3 and set to 1
        cex = bad["counterexample"]
        assert bad["expected"] != bad["actual"] and cex and set(cex.values()) == {1}
        assert set(cex) <= {"b1", "b2", "b3"}


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
        # a given solver picks the route, so there is no backend flag
        assert main(["verify", "-i", str(qft3_file), "--backend", "smt"]) == 3
        assert "unrecognized arguments: --backend smt" in capsys.readouterr().err

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

    @UTF8_CASES
    def test_file_is_read_as_utf8_text(self, tmp_path, capsys, data, message):
        # strictly UTF-8, with universal newlines: json.loads on the bytes
        # would decode UTF-16 and name a BOM otherwise
        path = tmp_path / "encoded.json"
        path.write_bytes(data)
        assert main(["verify", "-i", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @UTF8_CASES
    def test_stdin_is_read_as_the_file_is(self, tmp_path, data, message):
        # a pipe is read whole and a redirect a block at a time, both as
        # bytes, so the stdin encoding does not change the message
        path = tmp_path / "encoded.json"
        path.write_bytes(data)
        argv = [sys.executable, "-m", "qftverify.cli", "verify", "-i", "-"]
        latin_1 = dict(os.environ, PYTHONIOENCODING="latin-1")
        with path.open("rb") as redirect:
            runs = [subprocess.run(argv, input=data, capture_output=True, timeout=60),
                    subprocess.run(argv, stdin=redirect, capture_output=True, timeout=60),
                    subprocess.run(argv, input=data, capture_output=True, timeout=60, env=latin_1)]
        for run in runs:
            assert (run.returncode, run.stderr.decode()) == (3, f"error: {message}\n")

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
        (["verify", "-i", "/nonexistent/qft.json", "--solver", "z3", "--timeout", "inf"],
         "--timeout must be a positive number of seconds up to"),
        (["verify", "-i", "/nonexistent/qft.json", "--solver", "z3", "--timeout", "1e300"],
         "got 1e+300"),
        (["verify", "-i", "/nonexistent/qft.json", "--timeout", "5"], "--timeout needs --solver"),
        (["verify", "-i", "{file}", "--solver", " "], "the solver command is empty"),
        (["verify", "-i", "{file}", "--backend", "anf"], "unrecognized arguments: --backend anf"),
        (["bench"], "bench needs --sizes or --position-sweep"),
        (["bench", "--sizes", ","], "--sizes names nothing: ','"),
        (["bench", "--sizes", "8", "--scenarios", ","], "--scenarios names nothing: ','"),
        (["bench", "--position-sweep", "8", "--positions", ","], "--positions names nothing: ','"),
        (["bench", "--sizes", "8", "--repeats", "0"], "repeats must be at least 1, got 0"),
        (["bench", "--position-sweep", "8", "--repeats", "-1"], "repeats must be at least 1, got -1"),
    ], ids=["repeated-spec-field", "positions-alone", "sweep-sizes", "sweep-scenarios",
            "sweep-huge", "sweep-m1", "sweep-m2", "timeout-0", "timeout-negative",
            "timeout-inf", "timeout-1e300", "timeout-without-solver", "empty-solver", "backend-anf",
            "bench-no-sizes", "bench-empty-sizes", "bench-empty-scenarios",
            "sweep-empty-positions", "repeats-0", "sweep-repeats-negative"])
    def test_rejected_arguments_exit_3(self, qft3_file, capsys, argv, message):
        # a flag the command would ignore or cannot honour is a usage error
        assert main([str(qft3_file) if a == "{file}" else a for a in argv]) == 3
        captured = capsys.readouterr()
        err = captured.err
        if err.startswith("usage: "):
            # argparse's own rejection: its usage block, then one error line
            # from the subcommand's parser or, for unknown flags, the top one
            err = err.partition("\nqftv: " if "unrecognized" in err else f"\nqftv {argv[0]}: ")[2]
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and captured.out == ""

    @pytest.mark.parametrize("argv,circuit", [
        (["verify"], {"qubits": 1_000_000_000, "gates": []}),
        (["oracle-check", "--max-qubits", "40"], {"qubits": 40, "gates": []}),
    ], ids=["verify-1e9-qubits", "oracle-40-qubits"])
    def test_out_of_memory_exits_3(self, tmp_path, argv, circuit):
        # exit 1 would read as a property violation; the child's address
        # space is capped, so its allocation fails at once
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(circuit))
        cap = 1536 << 20
        run = subprocess.run(
            [sys.executable, "-m", "qftverify.cli", *argv, "-i", str(path)],
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (run.returncode, run.stderr) == (3, "error: out of memory\n")

    def test_unlaunchable_solver_exits_4(self, qft3_file, capsys):
        assert main(["verify", "-i", str(qft3_file), "--solver", "not-a-solver-xyz"]) == 4
        assert "cannot launch solver" in capsys.readouterr().out

    @pytest.mark.parametrize("script", [b"#!/bin/sh\nprintf 'unsat\\377\\n'\n", b"echo unsat\n"],
                             ids=["non-utf8-output", "no-shebang"])
    def test_solver_failure_exits_4(self, qft3_file, tmp_path, capsys, script):
        solver = tmp_path / "solver"
        solver.write_bytes(script)
        solver.chmod(solver.stat().st_mode | stat.S_IXUSR)
        assert main(["verify", "-i", str(qft3_file), "--solver", str(solver)]) == 4
        assert "overall: unresolved" in capsys.readouterr().out


def _without_millis(out: str) -> dict:
    doc = json.loads(out)
    for entry in doc["per_qubit"]:
        del entry["millis"]
    return doc


class TestStreamedVerify:
    # qftv verify groups a canonical file a block at a time as it decodes
    # it; the exit code and message are those of the circuit parsed whole
    LAST_GATE = '{"kind": "H", "target": 64}\n]}\n'

    def _file(self, tmp_path, c, last_gate=None):
        text = serialize_circuit(c)
        if last_gate is not None:
            assert text.endswith(self.LAST_GATE)
            text = text[:-len(self.LAST_GATE)] + last_gate + "\n]}\n"
        path = tmp_path / "c.json"
        path.write_text(text)
        return path

    def test_illegal_gate_in_a_late_block_exits_3(self, tmp_path, capsys):
        path = self._file(tmp_path, generate_qft(64), '{"kind": "H", "target": 65}')
        assert path.stat().st_size > 1 << 16  # the gate is in the file's second block
        assert main(["verify", "-i", str(path)]) == 3
        assert capsys.readouterr() == ("", "error: gate 2080: target 65 out of range 1..64\n")

    def test_parse_error_in_the_last_block_outranks_a_type_error_in_the_first(
            self, tmp_path, capsys):
        c = inject_error(generate_qft(64), DuplicateH(1))
        path = self._file(tmp_path, c, '{"kind": "H", "target": 065}')
        assert main(["verify", "-i", str(path)]) == 3
        assert capsys.readouterr() == ("", "error: line 2082, column 26: Expecting ',' delimiter\n")

    @pytest.mark.parametrize("line", [1, 64])
    def test_type_error_exits_2_with_the_whole_files_gate_count(self, tmp_path, capsys, line):
        # line 1's second H is gate 2, in the first block; line 64's is the last gate
        path = self._file(tmp_path, inject_error(generate_qft(64), DuplicateH(line)))
        assert main(["verify", "-i", str(path), "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["gates"] == qft_gate_count(64) + 1
        assert doc["type_error"]["gate"] == (2 if line == 1 else qft_gate_count(64) + 1)
        assert doc["type_error"]["kind"] == "duplicate-h"

    def test_non_canonical_file_gives_the_same_report(self, tmp_path, capsys, monkeypatch):
        c = inject_error(generate_qft(64), IncorrectGateOrder(target=63, ordinal=1, wrong_n=3))
        path = self._file(tmp_path, c)
        assert main(["verify", "-i", str(path), "--json", "--exhaustive"]) == 1
        canonical = _without_millis(capsys.readouterr().out)
        spaced = self._file(tmp_path, c, '{"kind": "H",  "target": 64}')
        parsed = []
        monkeypatch.setattr(circuit_mod, "_parse_json",
                            lambda stream, parse=circuit_mod._parse_json: parsed.append(1) or parse(stream))
        assert main(["verify", "-i", str(spaced), "--json", "--exhaustive"]) == 1
        assert _without_millis(capsys.readouterr().out) == canonical
        assert parsed == [1]
        assert [q["verdict"] for q in canonical["per_qubit"]].count("violation") == 1

    @pytest.mark.parametrize("last_gate", [None, '{"kind": "H",  "target": 64}'],
                             ids=["canonical", "non-canonical"])
    def test_stdin_pipe_gives_the_files_report(self, tmp_path, capsys, monkeypatch, last_gate):
        c = inject_error(generate_qft(64), IncorrectGateOrder(target=2, ordinal=5, wrong_n=3))
        path = self._file(tmp_path, c, last_gate)
        assert main(["verify", "-i", str(path), "--json"]) == 1
        from_file = _without_millis(capsys.readouterr().out)
        read_end, write_end = os.pipe()

        def write():
            with open(write_end, "wb") as end:
                end.write(path.read_bytes())

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        with open(read_end, "r") as pipe:
            assert not pipe.buffer.seekable()
            monkeypatch.setattr(sys, "stdin", pipe)
            assert main(["verify", "-i", "-", "--json"]) == 1
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert _without_millis(capsys.readouterr().out) == from_file


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
