"""The benchmark's traced layer probes, run in-process at small sizes.

Only ``perfbench/run.py --trace 1`` reaches these probes otherwise, so a
change to a public return value they consume (``typecheck``, ``run_abstract``,
``anf_normalize``, ``find_counterexample``) would break them unseen.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
from qftverify import generate_qft, serialize_circuit  # noqa: E402


def test_probe_file(tmp_path):
    path = tmp_path / "qft16.json"
    path.write_text(serialize_circuit(generate_qft(16)), encoding="utf-8")
    result = worker.probe_file(str(path))
    assert result["problems"] == []
    assert result["checker.verified"] == 16


def test_probe_refute():
    result = worker.probe_refute(m=64)
    assert result["problems"] == []
    assert "checker.witness_s" in result


def test_probe_sweep():
    result = worker.probe_sweep(m=5, seed=1, doubles=20, splits=3)
    assert result["problems"] == []
    assert result["checker.violations"] > 0
