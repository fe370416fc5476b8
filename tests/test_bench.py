import csv
import gc

import pytest

import qftverify.bench as bench
from qftverify.bench import (
    BenchConfig,
    TABLE_SCENARIOS,
    run_bench,
    run_position_sweep,
    scenario_error_spec,
    write_csv,
    write_plot_data,
)
from qftverify.abstraction import group_gates_by_line
from qftverify.checker import verify_circuit
from qftverify.circuit import IncorrectControl, IncorrectGateOrder, generate_qft, inject_error
from helpers import spearman


class TestScenarioSpecs:
    def test_taxonomy(self):
        m = 16
        assert scenario_error_spec("correct", m) is None
        assert scenario_error_spec("gate-2", m) == IncorrectGateOrder(1, 1, 3)
        assert scenario_error_spec("gate-n", m) == IncorrectGateOrder(1, 15, 15)
        assert scenario_error_spec("control-2", m) == IncorrectControl(1, 1, 3)
        assert scenario_error_spec("control-n", m) == IncorrectControl(1, 15, 15)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_error_spec("gate-7", 16)


class TestRunBench:
    def test_verdict_matrix(self):
        result = run_bench(BenchConfig(sizes=[8, 12], scenarios=TABLE_SCENARIOS, repeats=1))
        assert len(result.records) == 10
        for rec in result.records:
            assert rec.gates == rec.qubits * (rec.qubits + 1) // 2
            if rec.scenario == "correct":
                assert rec.verdict == "verified"
            else:
                assert rec.verdict == "violation"
            assert rec.time_s >= 0
            assert rec.backend == "weights"

    def test_truncation_marker(self, tmp_path):
        result = run_bench(BenchConfig(sizes=[8, 4096], scenarios=["correct"]))
        assert result.skipped_sizes == [4096]
        assert result.truncated
        out = tmp_path / "bench.csv"
        write_csv(result, out)
        assert "# truncated" in out.read_text()

    def test_empty_sweep_gives_header_only_csv(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_csv(run_bench(BenchConfig(sizes=[], scenarios=[])), out)
        assert out.read_bytes() == b"qubits,gates,scenario,verdict,backend,time_s,mem_mb\r\n"

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        write_csv(run_bench(BenchConfig(sizes=[8], scenarios=["correct", "gate-2"])), out)
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert list(rows[0]) == ["qubits", "gates", "scenario", "verdict", "backend", "time_s", "mem_mb"]
        assert rows[0]["qubits"] == "8" and rows[0]["gates"] == "36"
        assert rows[1]["scenario"] == "gate-2" and rows[1]["verdict"] == "violation"

    def test_repeats_run_round_robin(self, monkeypatch):
        labels = []
        measure = bench._measure
        monkeypatch.setattr(bench, "_measure",
                            lambda m, spec, label: labels.append(label) or measure(m, spec, label))
        run_bench(BenchConfig(sizes=[8], scenarios=["correct", "gate-2"], repeats=2,
                              measure_memory=False))
        assert labels == ["correct", "gate-2"] * 2

    @pytest.mark.parametrize("was_enabled", [True, False])
    def test_timed_runs_have_the_collector_off(self, monkeypatch, was_enabled):
        states = []
        measure = bench._measure
        monkeypatch.setattr(bench, "_measure",
                            lambda m, spec, label: states.append(gc.isenabled())
                            or measure(m, spec, label))
        (gc.enable if was_enabled else gc.disable)()
        try:
            run_bench(BenchConfig(sizes=[8], scenarios=["correct"], repeats=2,
                                  measure_memory=False))
            assert gc.isenabled() == was_enabled
        finally:
            gc.enable()
        assert states == [False, False]

    @pytest.mark.parametrize("sizes,scenarios", [([8], ["correct", "gate-7"]),
                                                 ([8, 3], ["correct", "gate-2"])],
                             ids=["unknown-scenario", "m-below-4"])
    def test_bad_row_fails_before_anything_is_timed(self, monkeypatch, sizes, scenarios):
        def measure(m, spec, label):
            raise AssertionError(f"timed {label} at m={m}")

        monkeypatch.setattr(bench, "_measure", measure)
        with pytest.raises(ValueError, match="unknown scenario|m >= 4"):
            run_bench(BenchConfig(sizes=sizes, scenarios=scenarios))

    def test_plot_data_blocks(self, tmp_path):
        out = tmp_path / "plot.dat"
        write_plot_data(run_bench(BenchConfig(sizes=[8, 12], scenarios=["correct", "gate-2"])), out)
        text = out.read_text()
        assert "# scenario: correct" in text and "# scenario: gate-2" in text
        blocks = text.strip().split("\n\n\n")
        assert len(blocks) == 2


def stream_specs(m):
    """The table scenarios and the position sweep's mutations at m."""
    specs = [(s, scenario_error_spec(s, m)) for s in TABLE_SCENARIOS]
    return specs + [(f"incorrect-gate@q{k}", IncorrectGateOrder(k, 1, 3)) for k in (1, m // 2, m - 1)]


class TestStreaming:
    @pytest.mark.parametrize("m,spec", [(m, spec) for m in (9, 64) for _, spec in stream_specs(m)],
                             ids=[label if m == 9 else f"{label}-m{m}"
                                  for m in (9, 64) for label, _ in stream_specs(m)])
    def test_streamed_lines_match_grouping(self, m, spec):
        circuit = generate_qft(m) if spec is None else inject_error(generate_qft(m), spec)
        assert list(bench._qft_lines(m, spec)) == group_gates_by_line(circuit)

    def test_streaming_agrees_with_materialized(self):
        streamed = run_bench(BenchConfig(sizes=[16], scenarios=TABLE_SCENARIOS,
                                         measure_memory=False))
        for rec in streamed.records:
            spec = scenario_error_spec(rec.scenario, 16)
            circuit = generate_qft(16) if spec is None else inject_error(generate_qft(16), spec)
            assert (rec.qubits, rec.gates, rec.verdict) \
                == (16, circuit.gate_count, verify_circuit(circuit).overall)

    def test_streaming_position_sweep(self):
        result = run_position_sweep(16, [1, 8, 15], repeats=1, measure_memory=False)
        for k, rec in zip([1, 8, 15], result.records):
            circuit = inject_error(generate_qft(16), IncorrectGateOrder(k, 1, 3))
            assert rec.verdict == verify_circuit(circuit).overall == "violation"

    def test_streaming_rejects_unsupported_spec(self):
        from qftverify.circuit import MissingH

        with pytest.raises(ValueError, match="streaming"):
            list(bench._qft_lines(8, MissingH(2)))


class TestPositionSweep:
    def test_labels_and_verdicts(self):
        result = run_position_sweep(16, [1, 5, 15], repeats=1, measure_memory=False)
        assert [rec.scenario for rec in result.records] == [
            "incorrect-gate@q1", "incorrect-gate@q5", "incorrect-gate@q15"]
        assert all(rec.verdict == "violation" for rec in result.records)

    def test_repeats_run_round_robin(self, monkeypatch):
        # no position is timed straight after its own previous run
        labels = []
        measure = bench._measure
        monkeypatch.setattr(bench, "_measure",
                            lambda m, spec, label: labels.append(label) or measure(m, spec, label))
        run_position_sweep(8, [1, 4], repeats=2, measure_memory=False)
        assert labels == ["incorrect-gate@q1", "incorrect-gate@q4"] * 2

    def test_position_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            run_position_sweep(16, [16], repeats=1)


class TestMonotoneTrend:
    def test_time_and_memory_vs_gates(self):
        # a textbook line is decided by one list comparison, a few ns per
        # gate, so the sizes double from 256: below that, the worst line's
        # time is within the host's jitter of its neighbour's
        sizes = [256, 512, 1024, 2048, 4096, 8192]
        result = run_bench(BenchConfig(sizes=sizes, scenarios=["correct"], repeats=5,
                                       allow_huge=True))
        gates = [rec.gates for rec in result.records]
        times = [rec.time_s for rec in result.records]
        mems = [rec.mem_mb for rec in result.records]
        nondecreasing = all(a <= b for a, b in zip(times, times[1:]))
        assert nondecreasing or spearman(gates, times) >= 0.9
        mem_nondecreasing = all(a <= b for a, b in zip(mems, mems[1:]))
        assert mem_nondecreasing or spearman(gates, mems) >= 0.9
