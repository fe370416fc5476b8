"""Benchmark sweeps: generate, mutate, verify, and record time and memory.

Reported time follows the independent-per-qubit methodology: a correct
circuit records its worst-case qubit time, an erroneous circuit records the
time of the first qubit that produced a counterexample.  Memory is the peak
of Python allocations during one untimed verification pass (timed passes run
without instrumentation so the numbers stay clean); it is approximate by
nature and recorded as such.

Sizes above the desk-scale cap are skipped unless explicitly allowed, and a
skip is marked in the results rather than silently dropped.  Every size is
verified by streaming the generated gates line by line instead of
materializing millions of gate objects.
"""

from __future__ import annotations

import csv
import itertools
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .checker import VERIFIED, CheckerConfig, verify_lines
from .circuit import (
    CircuitDescription,
    ErrorSpec,
    GateInstance,
    IncorrectControl,
    IncorrectGateOrder,
    inject_error,
    iter_qft_gates,
    qft_gate_count,
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
    exhaustive: bool = False
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


def _qft_lines(m: int, spec: ErrorSpec | None) -> Iterator[list[GateInstance]]:
    """The generated circuit with ``spec`` applied, cut into lines, one at a time.

    The canonical generator emits each line's gates contiguously, and gate
    and control mutations keep every gate on its line and every line well
    typed, so the mutated line is made by inject_error on that line alone and
    the whole circuit never exists at once.
    """
    if spec is not None and not isinstance(spec, (IncorrectGateOrder, IncorrectControl)):
        raise ValueError(f"streaming benchmarks support gate and control mutations, not {spec!r}")
    gates = iter_qft_gates(m)
    for i in range(1, m + 1):
        line = list(itertools.islice(gates, m - i + 1))
        if spec is not None and spec.target == i:
            line = list(inject_error(CircuitDescription(m, tuple(line)), spec).gates)
        yield line


def _measure(m: int, spec: ErrorSpec | None, label: str, cfg: BenchConfig) -> BenchRecord:
    checker_cfg = CheckerConfig(exhaustive=cfg.exhaustive)
    gates = qft_gate_count(m)

    def verify():
        return verify_lines(m, gates, _qft_lines(m, spec), checker_cfg)

    mem_mb = 0.0
    if cfg.measure_memory:
        tracemalloc.start()
        verify()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        mem_mb = peak / (1024.0 * 1024.0)
    best = None
    for _ in range(max(1, cfg.repeats)):
        report = verify()
        failing = [rec for rec in report.records if rec.verdict.status != VERIFIED]
        rec = failing[0] if failing else max(report.records, key=lambda r: r.millis)
        if best is None or rec.millis < best.millis:
            best = rec
    return BenchRecord(qubits=m, gates=gates, scenario=label, verdict=report.overall,
                       backend=best.backend, time_s=best.millis / 1000.0, mem_mb=round(mem_mb, 3))


def run_bench(cfg: BenchConfig) -> BenchResult:
    """Run the sweep described by ``cfg``; sizes beyond the cap are skipped
    (with a marker) unless huge sizes are explicitly allowed."""
    result = BenchResult()
    for m in cfg.sizes:
        if m > cfg.size_cap and not cfg.allow_huge:
            result.skipped_sizes.append(m)
            continue
        for scenario in cfg.scenarios:
            result.records.append(_measure(m, scenario_error_spec(scenario, m), scenario, cfg))
    return result


def run_position_sweep(m: int, positions: Sequence[int], repeats: int = 3,
                       measure_memory: bool = True) -> BenchResult:
    """Move a rotation-order error across qubit lines and measure each verify.

    Position k mutates the first rotation gate of qubit k (lines 1..m-1 carry
    rotations; the last line has none to mutate).  Scenario labels read
    incorrect-gate@q<k>.
    """
    result = BenchResult()
    cfg = BenchConfig(repeats=repeats, measure_memory=measure_memory)
    for k in positions:
        if not 1 <= k <= m - 1:
            raise ValueError(f"position {k} out of range 1..{m - 1}")
        spec = IncorrectGateOrder(target=k, ordinal=1, wrong_n=3)
        result.records.append(_measure(m, spec, f"incorrect-gate@q{k}", cfg))
    return result


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
