"""Tests for the CPU model, full-system wiring, runner and results."""

import pytest

from repro.config import CoreConfig, small_config
from repro.engine.registry import build_variant
from repro.sim.cpu import InOrderCore
from repro.sim.results import RunResult, arithmetic_mean, geometric_mean, normalize
from repro.sim.runner import run_experiment, run_variants
from repro.sim.system import SimulatedSystem
from repro.workloads.spec import spec_workload
from repro.workloads.trace import Trace


class TestInOrderCore:
    def test_instruction_accounting(self):
        core = InOrderCore(CoreConfig())
        core.execute_instructions(100)
        assert core.cycle == 100
        assert core.instructions == 100

    def test_memory_reference_adds_latency(self):
        core = InOrderCore(CoreConfig())
        core.memory_reference(hit_latency=2)
        assert core.cycle == 3  # latency + 1 instruction
        assert core.instructions == 1

    def test_stall(self):
        core = InOrderCore(CoreConfig())
        core.execute_instructions(10)
        core.stall_until(100)
        assert core.cycle == 100
        assert core.stats.get("stall_cycles") == 90
        core.stall_until(50)  # no time travel
        assert core.cycle == 100

    def test_ipc(self):
        core = InOrderCore(CoreConfig())
        core.execute_instructions(50)
        core.stall_until(100)
        assert core.ipc == pytest.approx(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InOrderCore(CoreConfig()).execute_instructions(-1)


class TestSimulatedSystem:
    def _trace(self, refs=50, stride=64):
        trace = Trace("unit")
        for i in range(refs):
            trace.append(5, i * stride * 97, i % 3 == 0)
        return trace

    def test_runs_and_advances(self):
        config = small_config(height=6)
        system = SimulatedSystem(config, build_variant("baseline", config))
        system.run(self._trace())
        assert system.cycles > 0
        assert system.instructions > 0
        assert system.stats.get("demand_misses") > 0

    def test_cache_filters_hits(self):
        config = small_config(height=6)
        system = SimulatedSystem(config, build_variant("baseline", config))
        trace = Trace("hot")
        for _ in range(100):
            trace.append(1, 0x40, False)  # same line: one miss total
        system.run(trace)
        assert system.stats.get("demand_misses") == 1

    def test_address_folding(self):
        config = small_config(height=6)
        controller = build_variant("baseline", config)
        system = SimulatedSystem(config, controller)
        big = controller.oram_config.num_logical_blocks * 64 * 10
        trace = Trace("big")
        trace.append(0, big, False)
        system.run(trace)  # must not raise InvalidAddressError

    def test_max_references(self):
        config = small_config(height=6)
        system = SimulatedSystem(config, build_variant("plain", config))
        system.run(self._trace(100), max_references=10)
        assert system.instructions < 100


class TestRunner:
    def test_run_experiment_produces_result(self):
        config = small_config(height=6)
        trace = spec_workload("429.mcf", references=400)
        result = run_experiment("ps", config, trace, warmup_references=50)
        assert result.variant == "ps"
        assert result.cycles > 0
        assert result.nvm_reads > 0
        assert result.mpki > 0

    def test_warmup_excluded_from_counters(self):
        config = small_config(height=6)
        trace = spec_workload("429.mcf", references=400)
        cold = run_experiment("baseline", config, trace, warmup_references=0)
        warm = run_experiment("baseline", config, trace, warmup_references=200)
        assert warm.instructions < cold.instructions

    def test_run_variants_cartesian(self):
        config = small_config(height=6)
        results = run_variants(
            ["baseline", "ps"], config, ["429.mcf"], references=200,
            warmup_references=50,
        )
        assert {(r.variant, r.workload) for r in results} == {
            ("baseline", "429.mcf"),
            ("ps", "429.mcf"),
        }


class TestResults:
    def _result(self, variant, workload, cycles):
        return RunResult(
            variant=variant, workload=workload, cycles=cycles,
            instructions=1000, llc_misses=10, nvm_reads=0, nvm_writes=0,
        )

    def test_normalize(self):
        results = [
            self._result("baseline", "a", 100),
            self._result("ps", "a", 110),
            self._result("baseline", "b", 200),
            self._result("ps", "b", 230),
        ]
        norm = normalize(results, "baseline")
        assert norm["ps"]["a"] == pytest.approx(1.10)
        assert norm["ps"]["b"] == pytest.approx(1.15)
        assert norm["baseline"]["a"] == pytest.approx(1.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0

    def test_mpki_cpi(self):
        result = self._result("x", "w", 2000)
        assert result.mpki == 10.0
        assert result.cpi == 2.0
