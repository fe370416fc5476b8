"""Every task of the benchmark's worker, run in-process at small sizes.

Only ``perfbench/run.py`` reaches these tasks otherwise, so a change to a
public name or return value they consume (``run_bench``, ``write_obligations``,
``verify_circuit``, and the polynomial interpreter's ``typecheck``,
``run_abstract``, ``anf_normalize``, ``find_counterexample``) would break
them unseen.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import minisolver  # noqa: E402
import qftverify  # noqa: E402
import worker  # noqa: E402
from qftverify import generate_qft, qft_gate_count, serialize_circuit  # noqa: E402


@pytest.fixture
def qft16_file(tmp_path):
    path = tmp_path / "qft16.json"
    path.write_text(serialize_circuit(generate_qft(16)), encoding="utf-8")
    return path


def test_tasks_cover_the_worker():
    assert set(worker.TASKS) == {
        "ready", "stream", "export", "sweep", "check_file", "smt_small",
        "probe_file", "probe_stream", "probe_refute", "probe_sweep", "probe_smt",
    }


def test_ready():
    assert worker.ready() == {"version": qftverify.__version__}


@pytest.mark.parametrize("scenario,verdict", [("correct", "verified"), ("gate-n", "violation")])
def test_stream(scenario, verdict):
    result = worker.stream(m=64, scenario=scenario)
    assert result["verdict"] == verdict
    assert (result["qubits"], result["gates"]) == (64, qft_gate_count(64))
    assert result["spec"] == (None if scenario == "correct" else ["IncorrectGateOrder", 1, 63, 63])


def test_export(qft16_file, tmp_path):
    result = worker.export(str(qft16_file), str(tmp_path / "obligations"))
    assert result["names"] == [f"q{i}.smt2" for i in range(1, 17)]
    assert 0 < result["largest"] <= result["bytes"]


def test_probe_smt(qft16_file, tmp_path):
    result = worker.probe_smt(str(qft16_file), str(tmp_path / "obligations"))
    assert result["problems"] == []
    assert result["smt.obligations"] == 16


def test_check_file(qft16_file):
    assert worker.check_file(str(qft16_file), 16) == []


def test_smt_small(tmp_path):
    # the order of qubit 1's first rotation goes from 2 to 3, so only q1 breaks
    result = worker.smt_small(m=4, spec=[1, 1, 3], outdir=str(tmp_path))
    answers = {label: [minisolver.solve(Path(p).read_text()).split()[0] for p in paths]
               for label, paths in result.items()}
    assert answers == {"correct": ["unsat"] * 4, "mutant": ["sat"] + ["unsat"] * 3}


def test_sweep():
    result = worker.sweep(m=5, seed=1, seconds=0, doubles=20, splits=3, setups=1)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert len(result["pass_s"]) == 1 and len(result["setup_s"]) == 1


def test_probe_file(qft16_file):
    result = worker.probe_file(str(qft16_file))
    assert result["problems"] == []
    assert result["checker.verified"] == 16


def test_probe_stream():
    result = worker.probe_stream(m=64)
    assert result["problems"] == []


def test_probe_refute():
    result = worker.probe_refute(m=64)
    assert result["problems"] == []
    assert "checker.witness_s" in result


def test_probe_sweep():
    result = worker.probe_sweep(m=5, seed=1, doubles=20, splits=3)
    assert result["problems"] == []
    assert result["checker.violations"] > 0
