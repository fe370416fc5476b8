"""Benchmark sweeps: generate, mutate, verify, and record time and memory.

Reported time follows the independent-per-qubit methodology: a correct
circuit records its worst-case qubit time, an erroneous circuit records the
time of the first qubit that produced a counterexample.  Over repeats, each
qubit's time is its best run, so a pause of the host has to hit the same
qubit in every round to show.  Timed runs have the cyclic garbage collector
off, as timeit does: when its pauses fall depends on everything else the
process holds, and the same allocations in every round can put one on the
same qubit each time.  Memory is the peak of Python allocations during one
untimed verification pass (timed passes run without instrumentation so the
numbers stay clean); it is approximate by nature and recorded as such.

Sizes above the desk-scale cap are skipped unless explicitly allowed, and a
skip is marked in the results rather than silently dropped.  Every size is
verified by streaming the circuit line by line, each line as the integer
columns of its rotations' orders and controls in closed form, so neither the
circuit nor a gate object of an unmutated line is ever built.
"""

from __future__ import annotations

import csv
import gc
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

from .abstraction import Line, group_gates_by_line
from .checker import VERIFIED, CheckerConfig, verify_lines
from .circuit import (
    ErrorSpec,
    IncorrectControl,
    IncorrectGateOrder,
    _qft_circuit,
    inject_error,
    qft_gate_count,
    qft_line,
)

__all__ = [
    "DEFAULT_SIZE_CAP",
    "TABLE_SCENARIOS",
    "BenchRecord",
    "BenchConfig",
    "BenchResult",
    "scenario_error_spec",
    "run_bench",
    "run_position_sweep",
    "write_csv",
    "write_plot_data",
]

DEFAULT_SIZE_CAP = 2048

TABLE_SCENARIOS = ("correct", "gate-2", "gate-n", "control-2", "control-n")


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement (see module docstring for the timing rules)."""

    qubits: int
    gates: int
    scenario: str
    verdict: str
    backend: str
    time_s: float
    mem_mb: float


@dataclass
class BenchConfig:
    sizes: Sequence[int] = ()
    scenarios: Sequence[str] = TABLE_SCENARIOS
    repeats: int = 1
    size_cap: int = DEFAULT_SIZE_CAP
    allow_huge: bool = False
    measure_memory: bool = True


@dataclass
class BenchResult:
    records: list[BenchRecord] = field(default_factory=list)
    skipped_sizes: list[int] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return bool(self.skipped_sizes)


def scenario_error_spec(name: str, m: int) -> ErrorSpec | None:
    """The standard single-error mutations benchmarked against each size.

    gate-2: the first rotation on qubit 1 (order 2) gets order 3.
    gate-n: the deepest rotation on qubit 1 (order m) gets order m-1.
    control-2: the first rotation on qubit 1 is controlled by qubit 3.
    control-n: the deepest rotation on qubit 1 is controlled by qubit m-1.
    """
    if name == "correct":
        return None
    if m < 4:
        raise ValueError(f"benchmark scenarios need m >= 4, got {m}")
    if name == "gate-2":
        return IncorrectGateOrder(target=1, ordinal=1, wrong_n=3)
    if name == "gate-n":
        return IncorrectGateOrder(target=1, ordinal=m - 1, wrong_n=m - 1)
    if name == "control-2":
        return IncorrectControl(target=1, ordinal=1, wrong_control=3)
    if name == "control-n":
        return IncorrectControl(target=1, ordinal=m - 1, wrong_control=m - 1)
    raise ValueError(f"unknown scenario {name!r}; expected one of {', '.join(TABLE_SCENARIOS)}")


def _qft_lines(m: int, spec: ErrorSpec | None) -> Iterator[Line]:
    """The generated circuit with ``spec`` applied, as typed lines, one at a time.

    Each line's columns come in closed form (qft_line), so no gate object is
    built.  Gate and control mutations keep every gate on its line and every
    line well typed, so the mutated line is made by inject_error on a
    circuit of that line's gates alone and then grouped.
    """
    if spec is not None and not isinstance(spec, (IncorrectGateOrder, IncorrectControl)):
        raise ValueError(f"streaming benchmarks support gate and control mutations, not {spec!r}")
    for i in range(1, m + 1):
        if spec is not None and spec.target == i:
            yield group_gates_by_line(inject_error(_qft_circuit(m, (i,)), spec))[i - 1]
        else:
            yield qft_line(m, i)


def _peak_mb(m: int, spec: ErrorSpec | None) -> float:
    """Peak Python allocation of one verification, in MB (not a timed run)."""
    tracemalloc.start()
    _measure(m, spec, "")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return round(peak / (1024.0 * 1024.0), 3)


def _measure(m: int, spec: ErrorSpec | None, label: str) -> tuple[BenchRecord, list[float]]:
    """One timed verification: its record, without a time yet, and the
    qubit times in seconds that the rules in the module docstring count:
    every qubit's for a correct circuit, the first failing qubit's otherwise."""
    report = verify_lines(m, qft_gate_count(m), _qft_lines(m, spec), CheckerConfig())
    failing = [rec for rec in report.records if rec.verdict.status != VERIFIED]
    counted = failing[:1] or report.records
    record = BenchRecord(qubits=m, gates=qft_gate_count(m), scenario=label, verdict=report.overall,
                         backend=counted[0].backend, time_s=0.0, mem_mb=0.0)
    return record, [rec.millis / 1000.0 for rec in counted]


def _sweep(m: int, rows: Sequence[tuple[str, ErrorSpec | None]], repeats: int,
           measure_memory: bool) -> list[BenchRecord]:
    """One record per ``(label, spec)`` row: each row's memory pass, then
    ``repeats`` timed rounds over all the rows.  A row's time is the worst
    of its counted qubits' best times over the rounds."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    mems = [_peak_mb(m, spec) if measure_memory else 0.0 for _, spec in rows]
    enabled = gc.isenabled()
    gc.disable()
    try:
        rounds = [[_measure(m, spec, label) for label, spec in rows] for _ in range(repeats)]
    finally:
        if enabled:
            gc.enable()
    return [replace(runs[0][0], time_s=max(map(min, zip(*(times for _, times in runs)))),
                    mem_mb=mem_mb)
            for runs, mem_mb in zip(zip(*rounds), mems)]


def run_bench(cfg: BenchConfig) -> BenchResult:
    """Run the sweep described by ``cfg``; sizes beyond the cap are skipped
    (with a marker) unless huge sizes are explicitly allowed.  Each record
    takes every qubit's best of ``cfg.repeats`` timed verifications, run
    round-robin over one size's scenarios.  Every scenario is checked before
    anything is timed."""
    result = BenchResult()
    tables = []
    for m in cfg.sizes:
        if m > cfg.size_cap and not cfg.allow_huge:
            result.skipped_sizes.append(m)
        else:
            tables.append((m, [(s, scenario_error_spec(s, m)) for s in cfg.scenarios]))
    for m, rows in tables:
        result.records += _sweep(m, rows, cfg.repeats, cfg.measure_memory)
    return result


def run_position_sweep(m: int, positions: Sequence[int], repeats: int = 3,
                       measure_memory: bool = True) -> BenchResult:
    """Move a rotation-order error across qubit lines and measure each verify.

    Position k mutates the first rotation gate of qubit k (lines 1..m-1 carry
    rotations; the last line has none to mutate) to order 3, so m >= 3.
    Scenario labels read incorrect-gate@q<k>.  Each record is the best of
    ``repeats`` timed verifications, taken round-robin over the positions.
    """
    if m < 3:
        raise ValueError(f"a position sweep needs m >= 3, got {m}")
    for k in positions:
        if not 1 <= k <= m - 1:
            raise ValueError(f"position {k} out of range 1..{m - 1}")
    rows = [(f"incorrect-gate@q{k}", IncorrectGateOrder(target=k, ordinal=1, wrong_n=3))
            for k in positions]
    return BenchResult(records=_sweep(m, rows, repeats, measure_memory))


CSV_COLUMNS = ("qubits", "gates", "scenario", "verdict", "backend", "time_s", "mem_mb")


def write_csv(result: BenchResult, path: Path | str) -> None:
    """CSV with the schema qubits,gates,scenario,verdict,backend,time_s,mem_mb.

    A truncated sweep gets an explicit trailing marker comment.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for rec in result.records:
            writer.writerow([rec.qubits, rec.gates, rec.scenario, rec.verdict,
                             rec.backend, f"{rec.time_s:.6f}", f"{rec.mem_mb:.3f}"])
        if result.truncated:
            sizes = ", ".join(str(s) for s in result.skipped_sizes)
            handle.write(f"# truncated: sizes skipped by resource budget: {sizes}\n")


def write_plot_data(result: BenchResult, path: Path | str) -> None:
    """Gnuplot-friendly blocks (one index per scenario): gates, time, memory."""
    path = Path(path)
    by_scenario: dict[str, list[BenchRecord]] = {}
    for rec in result.records:
        by_scenario.setdefault(rec.scenario, []).append(rec)
    blocks = []
    for scenario, records in by_scenario.items():
        lines = [f"# scenario: {scenario}", "# gates time_s mem_mb"]
        for rec in sorted(records, key=lambda r: r.gates):
            lines.append(f"{rec.gates} {rec.time_s:.6f} {rec.mem_mb:.3f}")
        blocks.append("\n".join(lines))
    path.write_text("\n\n\n".join(blocks) + "\n", encoding="utf-8")
