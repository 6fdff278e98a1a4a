"""Ablation: dirty-entry tracking — the design choice behind PS-ORAM.

Quantifies exactly what Section 4.2.2's dirty-PosMap-entry tracking buys
over flushing all Z*(L+1) entries (Naive), in entries persisted per access
and in the resulting performance delta.
"""

from repro.bench.harness import BENCH_CONFIG, format_table, sweep
from repro.mem.request import RequestKind
from repro.engine.registry import build_variant
from repro.util.rng import DeterministicRNG

WORKLOADS = ("429.mcf", "401.bzip2")


def test_entries_persisted_per_access(benchmark):
    def run():
        out = {}
        for variant in ("ps", "naive-ps"):
            controller = build_variant(variant, BENCH_CONFIG)
            rng = DeterministicRNG(3)
            accesses = 250
            for i in range(accesses):
                controller.write(rng.randrange(400), bytes([i % 256]))
            out[variant] = (
                controller.stats.get("posmap_entries_persisted") / accesses,
                controller.traffic.writes_of(RequestKind.PERSIST) / accesses,
            )
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    path_slots = BENCH_CONFIG.oram.path_blocks
    rows = [
        (variant, entries, writes, writes / path_slots)
        for variant, (entries, writes) in data.items()
    ]
    print()
    print(
        format_table(
            "Dirty tracking: PosMap entries persisted per ORAM access",
            ["Variant", "Entries/access", "NVM writes/access", "vs path slots"],
            rows,
        )
    )
    ps_writes = data["ps"][1]
    naive_writes = data["naive-ps"][1]
    # Naive persists one entry per path slot; PS a small handful.
    assert abs(naive_writes - path_slots) < 1.0
    assert ps_writes < 0.15 * naive_writes


def test_performance_delta(benchmark):
    results = benchmark.pedantic(
        lambda: sweep(("baseline", "ps", "naive-ps"), WORKLOADS),
        rounds=1, iterations=1,
    )
    cycles = {}
    for result in results:
        cycles.setdefault(result.variant, []).append(result.cycles)
    mean = {v: sum(c) / len(c) for v, c in cycles.items()}
    print()
    print(
        format_table(
            "Dirty tracking: performance effect",
            ["Variant", "Cycles vs baseline"],
            [(v, mean[v] / mean["baseline"]) for v in ("baseline", "ps", "naive-ps")],
        )
    )
    # The entire Naive-vs-PS gap is the dirty-tracking win.
    assert mean["naive-ps"] / mean["ps"] > 1.3
