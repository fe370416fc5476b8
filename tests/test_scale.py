"""Whole circuits at m = 64..1024, checked against integer phase arithmetic.

Every exhaustive report here is checked by ``perfbench/refcheck.py``, which
computes each line's phase as integer coefficients of the inputs and never
imports the package, so a false pass, a false failure or a witness that does
not separate shows up at sizes the dense oracle cannot reach.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qftverify.checker import CheckerConfig, verify_circuit
from qftverify.circuit import CircuitDescription, GateInstance, generate_qft

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import refcheck  # noqa: E402

SIZES = (64, 300, 1024)


@pytest.fixture(scope="module")
def canonical():
    return {m: generate_qft(m) for m in SIZES}


def refcheck_problems(c: CircuitDescription) -> list[str]:
    """Verify ``c`` exhaustively and check the report against refcheck."""
    report = verify_circuit(c, CheckerConfig(exhaustive=True))
    gates = [("R", target, n, control) if n else ("H", target)
             for target, n, control in zip(c.targets, c.orders, c.controls)]
    records = [(r.verdict.qubit, r.verdict.status, r.verdict.counterexample, r.verdict.expected,
                r.verdict.actual) for r in report.records]
    return refcheck.check_report(c.m, gates, report.overall, records)


@st.composite
def rotation_mutants(draw, canonical):
    """A canonical circuit after one to three rotation mutations: a wrong
    order (order 1, a neighbour's order, so that two rotations share a
    position, or any order), a wrong control, or a split into two halves.
    Each mutation edits the circuit's integer columns, which hold an H as
    order 0.  Returns the circuit and the mutation kinds applied."""
    c = canonical[draw(st.sampled_from(SIZES))]
    m = c.m
    columns = targets, orders, controls = c.targets.tolist(), c.orders.tolist(), c.controls.tolist()
    kinds = []
    for kind in draw(st.lists(st.sampled_from(("order", "control", "split")), min_size=1,
                              max_size=3)):
        k = draw(st.integers(0, len(targets) - 1))
        if not orders[k]:
            # every H but line m's is followed by a rotation on its line
            k = k + 1 if k + 1 < len(targets) and orders[k + 1] else k - 1
        if kind == "split" and orders[k] == m:
            kind = "order"  # R(m) has no half in m bits
        kinds.append(kind)
        if kind == "split":
            for column in columns:
                column.insert(k, column[k])
            orders[k] = orders[k + 1] = orders[k] + 1
        elif kind == "control":
            controls[k] = draw(st.integers(1, m).filter(lambda j: j != targets[k]))
        else:
            n = draw(st.sampled_from((1, orders[k] - 1, orders[k] + 1)) | st.integers(1, m))
            orders[k] = min(max(n, 1), m)
    return CircuitDescription._from_columns(m, *columns), kinds


def test_random_mutants_match_integer_phases(canonical):
    seen = set()

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(rotation_mutants(canonical))
    def check(case):
        c, kinds = case
        assert refcheck_problems(c) == []
        seen.add(c.m)
        seen.update(kinds)

    check()
    assert seen >= {*SIZES, "order", "control", "split"}


def test_split_line_one_still_verifies(canonical):
    # every line-1 rotation R(n) with n < m becomes two R(n+1): each pair
    # collides and carries, and the line's phase is unchanged
    c = canonical[1024]
    m = c.m
    gates = c.gates
    line_one = [GateInstance("H", 1)]
    for g in gates[1:m]:
        halves = [replace(g, n=g.n + 1)] * 2 if g.n < m else [g]
        line_one += halves
    split = CircuitDescription(m, (*line_one, *gates[m:]))
    assert split.gate_count == c.gate_count + m - 2
    assert verify_circuit(split, CheckerConfig(exhaustive=True)).overall == "verified"


@st.composite
def folded_lines(draw):
    """A canonical m-qubit circuit, m in 64..300, with one line rebuilt from
    its textbook rotations: up to three errors (a wrong order or control, a
    duplicate, a dropped or an extra rotation) and some textbook rotations,
    each maybe split into 2**d rotations of d orders finer on the same
    control so that they carry d levels, and the whole line shuffled.
    Returns the circuit and the rebuilt line's index."""
    m = draw(st.integers(64, 300))
    i = draw(st.integers(1, m - 1))
    rotations = [(n, i + n - 1) for n in range(2, m - i + 2)]

    def split(k):
        n, control = rotations[k]
        depth = draw(st.integers(0, min(6, m - n)))
        rotations[k:k + 1] = [(n + depth, control)] * (1 << depth)

    for kind in draw(st.lists(st.sampled_from(("order", "control", "duplicate", "drop", "extra")),
                              max_size=3)):
        if not rotations:
            kind = "extra"
        k = draw(st.integers(0, max(len(rotations) - 1, 0)))
        if kind == "order":
            n = draw(st.sampled_from((1, rotations[k][0] - 1, rotations[k][0] + 1))
                     | st.integers(1, m))
            rotations[k] = (min(max(n, 1), m), rotations[k][1])
        elif kind == "control":
            rotations[k] = (rotations[k][0], draw(st.integers(1, m)))
        elif kind == "duplicate":
            rotations.insert(k, rotations[k])
        elif kind == "drop":
            del rotations[k]
            continue
        else:
            k = len(rotations)
            rotations.append((draw(st.integers(1, m)), draw(st.integers(1, m))))
        split(k)
    for _ in range(draw(st.integers(1, 4))):
        if rotations:
            split(draw(st.integers(0, len(rotations) - 1)))
    rotations = draw(st.permutations(rotations))
    targets, orders, controls = [], [], []
    for j in range(1, m + 1):
        line = rotations if j == i else [(n, j + n - 1) for n in range(2, m - j + 2)]
        targets += [j] * (len(line) + 1)
        orders += [0, *(n for n, _ in line)]
        controls += [0, *(k for _, k in line)]
    return CircuitDescription._from_columns(m, targets, orders, controls), i


def test_folded_lines_match_integer_phases():
    statuses = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(folded_lines())
    def check(case):
        c, i = case
        assert refcheck_problems(c) == []
        statuses.add(verify_circuit(c).overall)

    check()
    assert statuses == {"verified", "violation"}
