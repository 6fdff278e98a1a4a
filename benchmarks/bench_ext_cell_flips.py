"""Extension bench: data-comparison writes vs encrypted ORAM traffic.

The paper's related work cites DEUCE [69] and SECRET [59]: PCM writes only
the cells whose bits change, so plain data (few flips per store) is much
cheaper than it looks — but counter-mode re-encryption randomizes every
bit, flipping ~50% of cells and defeating the optimization.  PS-ORAM's
full-path re-encryption therefore pays near-worst-case cell energy; this
bench quantifies the tension the write-efficient-encryption literature
exists to fix.
"""

from repro.bench.harness import BENCH_CONFIG, format_table
from repro.engine.registry import build_variant
from repro.util.rng import DeterministicRNG

ACCESSES = 120


def _flip_rate(variant, mutate_fraction=0.1):
    controller = build_variant(variant, BENCH_CONFIG)
    rng = DeterministicRNG(8)
    # Repeatedly rewrite a small working set with *barely changed* data —
    # the friendliest possible workload for data-comparison writes.
    base_payload = bytearray(64)
    for i in range(ACCESSES):
        address = rng.randrange(30)
        if rng.random() < mutate_fraction:
            base_payload[rng.randrange(64)] ^= 1
        controller.write(address, bytes(base_payload))
    return controller.memory.traffic.flip_rate


def test_encryption_defeats_dcw(benchmark):
    def run():
        return {
            "plain": _flip_rate("plain"),
            "baseline-oram": _flip_rate("baseline"),
            "ps-oram": _flip_rate("ps"),
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = sorted(data.items())
    print()
    print(
        format_table(
            "Fraction of written bits that flip PCM cells (DCW model)",
            ["System", "Flip rate"],
            rows,
        )
    )
    # Plain NVM rewriting nearly-identical data flips almost nothing;
    # the ORAM's counter-mode re-encryption flips ~half of all bits.
    assert data["plain"] < 0.10
    assert 0.40 < data["baseline-oram"] < 0.60
    assert 0.40 < data["ps-oram"] < 0.60
