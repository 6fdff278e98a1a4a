"""Extension bench: recovery latency and energy accounting.

Section 2.5 dismisses logging partly for "slow recovery"; this bench
measures what PS-ORAM recovery actually does — rebuild the on-chip PosMap
mirror from the persistent image — and shows it scales with the number of
*written* entries, not with the address-space capacity (the deterministic
initial mapping needs no scan).  Also reports the per-design NVM access
energy from the device model's counters.
"""

import time

from repro.bench.harness import BENCH_CONFIG, format_table
from repro.config import small_config
from repro.engine.registry import build_variant
from repro.util.rng import DeterministicRNG
from repro.util.units import format_energy


def test_recovery_scales_with_written_set(benchmark):
    def run():
        out = {}
        for writes in (50, 200, 800):
            controller = build_variant("ps", small_config(height=12, seed=6))
            rng = DeterministicRNG(1)
            for i in range(writes):
                controller.write(rng.randrange(writes), bytes([i % 256]))
            controller.crash()
            started = time.perf_counter()
            assert controller.recover()
            elapsed = time.perf_counter() - started
            out[writes] = (elapsed, len(dict(controller.posmap.modified_entries())))
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (writes, entries, f"{elapsed * 1e3:.2f}ms")
        for writes, (elapsed, entries) in data.items()
    ]
    print()
    print(
        format_table(
            "PS-ORAM recovery: wall time vs written working set "
            "(tree capacity fixed at 16K blocks)",
            ["Writes", "PosMap entries rebuilt", "Recovery time"],
            rows,
        )
    )
    # Recovery walks written entries only; a 16x working set costs far
    # less than 16x the empty-capacity baseline would suggest.
    assert data[800][1] > data[50][1]
    assert data[800][0] < 1.0  # sub-second at any tested size


def test_nvm_energy_per_design(benchmark):
    accesses = 150

    def run():
        out = {}
        for variant in ("baseline", "ps", "naive-ps", "fullnvm"):
            controller = build_variant(variant, BENCH_CONFIG)
            rng = DeterministicRNG(2)
            for i in range(accesses):
                controller.write(rng.randrange(300), bytes([i % 256]))
            energy = controller.memory.energy_pj
            onchip = getattr(controller, "onchip", None)
            if onchip is not None:
                energy += onchip.energy_pj
            out[variant] = energy / accesses
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    base = data["baseline"]
    rows = [
        (variant, format_energy(energy), energy / base)
        for variant, energy in data.items()
    ]
    print()
    print(
        format_table(
            "NVM access energy per ORAM access (device model counters)",
            ["Variant", "Energy/access", "vs baseline"],
            rows,
        )
    )
    # Energy tracks write traffic: PS ~ baseline, Naive ~ +60-100%
    # (writes dominate PCM energy), FullNVM adds the on-chip array.
    assert data["ps"] < 1.1 * base
    assert data["naive-ps"] > 1.4 * base
