"""Tests for Rcr-PS-ORAM: the crash-consistent recursive design."""

import pytest

from repro.config import small_config
from repro.core.recursive_ps import IntentLog, RcrPSORAMController
from repro.config import PCM_TIMING
from repro.mem.controller import NVMMainMemory
from repro.util.rng import DeterministicRNG


class TestIntentLog:
    @pytest.fixture
    def log(self):
        memory = NVMMainMemory(PCM_TIMING)
        return IntentLog(memory, base=1 << 16, slots=4, line_bytes=64)

    def test_append_and_read_back(self, log):
        log.append(7, old_path=3, new_path=9, now_mem=0)
        records = log.records()
        assert records == [(1, 7, 3, 9)]

    def test_sequence_increases(self, log):
        log.append(1, 0, 1, 0)
        log.append(2, 0, 1, 0)
        seqs = [r[0] for r in log.records()]
        assert seqs == [1, 2]

    def test_cyclic_overwrite(self, log):
        for i in range(6):  # 4 slots: first two overwritten
            log.append(i, 0, 1, 0)
        addresses = {r[1] for r in log.records()}
        assert addresses == {2, 3, 4, 5}

    def test_restore_sequence(self, log):
        log.append(1, 0, 1, 0)
        log.append(2, 0, 1, 0)
        fresh = IntentLog(log.memory, log.base, log.slots, log.line_bytes)
        fresh.restore_sequence()
        fresh.append(3, 0, 1, 0)
        assert max(r[0] for r in fresh.records()) == 3

    def test_timed_write_counted(self, log):
        before = log.memory.traffic.total_writes
        log.append(1, 0, 1, 0)
        assert log.memory.traffic.total_writes == before + 1


@pytest.fixture
def rcr_ps():
    return RcrPSORAMController(small_config(height=7, seed=4))


class TestFunctional:
    def test_roundtrip(self, rcr_ps):
        rcr_ps.write(5, b"deep")
        assert rcr_ps.read(5).data.rstrip(b"\x00") == b"deep"

    def test_random_workload(self, rcr_ps):
        rng = DeterministicRNG(6)
        model = {}
        for i in range(200):
            addr = rng.randrange(70)
            if rng.random() < 0.5:
                value = bytes([i % 256])
                rcr_ps.write(addr, value)
                model[addr] = value + bytes(63)
            else:
                assert rcr_ps.read(addr).data == model.get(addr, bytes(64))

    def test_supports_crash_consistency(self, rcr_ps):
        assert rcr_ps.supports_crash_consistency()


class TestDurability:
    def test_quiescent_crash_recovery(self, rcr_ps):
        rng = DeterministicRNG(7)
        model = {}
        for i in range(120):
            addr = rng.randrange(50)
            value = bytes([i % 256, addr]) + bytes(62)
            rcr_ps.write(addr, value)
            model[addr] = value
        rcr_ps.crash()
        assert rcr_ps.recover()
        for addr, want in model.items():
            assert rcr_ps.read(addr).data == want, f"address {addr} lost"

    def test_repeated_crash_cycles(self, rcr_ps):
        rng = DeterministicRNG(8)
        model = {}
        for cycle in range(4):
            for i in range(25):
                addr = rng.randrange(30)
                value = bytes([cycle, i % 256]) + bytes(62)
                rcr_ps.write(addr, value)
                model[addr] = value
            rcr_ps.crash()
            assert rcr_ps.recover()
        for addr, want in model.items():
            assert rcr_ps.read(addr).data == want

    def test_intent_repair_survives_a_second_crash(self):
        """A repair made by recovery must be durable on its own.

        Crash right after an acknowledged write whose live copy is still
        stash-resident: the posmap tree already holds the new path, and
        recovery repairs the entry to the backup's old path from the intent
        log.  Once later remaps have reused every intent slot, a second
        crash rebuilds the PosMap from the posmap tree alone, so the repair
        must have reached the tree too.
        """
        rcr = RcrPSORAMController(small_config(height=4, seed=1))
        n = rcr.oram_config.num_logical_blocks
        rng = DeterministicRNG(1)
        for i in range(200):
            address = rng.randrange(n)
            data = b"v%d" % i
            rcr.write(address, data)
            if rcr.stash.find(address) is not None:
                break
        else:
            pytest.fail("no write left its block in the stash; pick another seed")
        rcr.crash()
        assert rcr.recover()
        assert rcr.stats.get("intents_repaired") == 1
        others = [other for other in range(n) if other != address]
        for j in range(rcr.intent_log.slots):
            rcr.read(others[j % len(others)])
        rcr.crash()
        assert rcr.recover()
        assert rcr.read(address).data.rstrip(b"\x00") == data

    def test_intent_repair_after_posmap_data_window_crash(self, rcr_ps):
        """Crash after the posmap tree learned l' but before data followed."""
        from repro.errors import SimulatedCrash

        rng = DeterministicRNG(9)
        model = {}
        for i in range(60):
            addr = rng.randrange(30)
            value = bytes([i % 256]) + bytes(63)
            rcr_ps.write(addr, value)
            model[addr] = value

        def hook(label):
            if label == "step4:after-backup":
                raise SimulatedCrash(label)

        rcr_ps.crash_hook = hook
        with pytest.raises(SimulatedCrash):
            rcr_ps.write(3, b"torn")
        rcr_ps.crash_hook = None
        rcr_ps.crash()
        assert rcr_ps.recover()
        assert rcr_ps.stats.get("intents_repaired") >= (1 if 3 in model else 0)
        got = rcr_ps.read(3).data
        assert got in (model.get(3, bytes(64)), b"torn" + bytes(60))
        for addr, want in model.items():
            if addr == 3:
                continue
            assert rcr_ps.read(addr).data == want


class TestOverheadShape:
    def test_write_overhead_vs_rcr_baseline_is_small(self):
        """Fig 6(b) row: Rcr-PS adds modest write-only overhead."""
        from repro.oram.recursive import RecursivePathORAM

        config = small_config(height=7, seed=4)
        base = RecursivePathORAM(config)
        ps = RcrPSORAMController(config)
        rng_a, rng_b = DeterministicRNG(1), DeterministicRNG(1)
        for i in range(100):
            base.write(rng_a.randrange(40), b"v")
            ps.write(rng_b.randrange(40), b"v")
        read_ratio = ps.traffic.total_reads / base.traffic.total_reads
        write_ratio = ps.traffic.total_writes / base.traffic.total_writes
        assert read_ratio == pytest.approx(1.0, rel=0.02)  # no extra reads
        assert 1.0 < write_ratio < 1.25  # intent log + root-posmap persists
