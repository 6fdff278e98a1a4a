"""Unit tests for the NVM device/bank/channel/controller timing model."""

import random

import pytest

from repro.config import PCM_TIMING, STTRAM_TIMING
from repro.mem.bank import reserve_interval
from repro.mem.channel import Channel
from repro.mem.controller import NVMMainMemory
from repro.mem.device import DeviceTimingModel
from repro.mem.request import Access, RequestKind


class TestDevice:
    def test_pcm_latencies(self):
        device = DeviceTimingModel(PCM_TIMING)
        assert device.service_cycles(Access.READ) == 49
        assert device.service_cycles(Access.WRITE) == 67

    def test_stt_writes_much_faster_than_pcm(self):
        pcm = DeviceTimingModel(PCM_TIMING)
        stt = DeviceTimingModel(STTRAM_TIMING)
        assert stt.service_cycles(Access.WRITE) < pcm.service_cycles(Access.WRITE) / 2

    def test_energy_split(self):
        device = DeviceTimingModel(PCM_TIMING)
        assert device.energy_pj(Access.WRITE) > device.energy_pj(Access.READ)


def _one_channel() -> NVMMainMemory:
    """Eight banks behind one bus: line ``n`` lands on bank ``n % 8``."""
    return NVMMainMemory(PCM_TIMING, channels=1, banks_per_channel=8)


class TestBank:
    def test_serializes_back_to_back(self):
        memory = _one_channel()
        first = memory.issue(0, Access.READ, 0)
        second = memory.issue(0, Access.READ, 0)
        assert second >= first + 49

    def test_idle_bank_services_immediately(self):
        memory = _one_channel()
        # Dispatch is free, so the read sees only the bank's 49 cycles
        # and its own data burst.
        assert memory.issue(0, Access.READ, 1000) == 1000 + 49 + Channel.BURST_CYCLES

    def test_reset(self):
        memory = _one_channel()
        memory.issue(0, Access.WRITE, 0)
        memory.reset_timing()
        bank = memory.channels[0].banks[0]
        assert bank.busy_until == 0
        assert bank.serviced == 0


class TestChannel:
    def test_different_banks_overlap(self):
        memory = _one_channel()
        done_a = memory.issue(0, Access.READ, 0)
        done_b = memory.issue(64, Access.READ, 0)
        # Second access uses another bank: only dispatch and the burst
        # serialize.
        assert done_b - done_a <= max(Channel.BURST_CYCLES, NVMMainMemory.DISPATCH_CYCLES)

    def test_same_bank_serializes(self):
        memory = _one_channel()
        done_a = memory.issue(0, Access.READ, 0)
        done_b = memory.issue(8 * 64, Access.READ, 0)
        assert done_b >= done_a + 49

    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            Channel(0, num_banks=0)


class TestNVMMainMemory:
    def test_functional_store_roundtrip(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.store_line(128, b"payload")
        assert memory.load_line(128) == b"payload"
        assert memory.load_line(64) is None

    def test_timed_access_updates_traffic_and_energy(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.issue(0, Access.READ, 0)
        memory.issue(64, Access.WRITE, 0, data=b"x")
        assert memory.traffic.total_reads == 1
        assert memory.traffic.total_writes == 1
        assert memory.energy_pj > 0
        assert memory.load_line(64) == b"x"

    def test_channel_interleaving_balances(self):
        memory = NVMMainMemory(PCM_TIMING, channels=4)
        for line in range(32):
            memory.issue(line * 64, Access.READ, 0)
        counts = [c.serviced for c in memory.channels]
        assert counts == [8, 8, 8, 8]

    def test_bank_striping_uses_all_banks_per_channel(self):
        memory = NVMMainMemory(PCM_TIMING, channels=2, banks_per_channel=4)
        for line in range(16):
            memory.issue(line * 64, Access.READ, 0)
        for channel in memory.channels:
            assert all(bank.serviced == 2 for bank in channel.banks)

    def test_more_channels_finish_sooner(self):
        def finish_with(channels):
            memory = NVMMainMemory(PCM_TIMING, channels=channels)
            return memory.issue_path(
                [line * 64 for line in range(64)], Access.READ, 0
            )

        # Gains flatten once the shared dispatch stage dominates (the
        # calibrated Figure-7 behaviour), so 2->4 channels may only tie.
        assert finish_with(4) <= finish_with(2) < finish_with(1)

    def test_written_lines_range_filter(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.store_line(0, b"a")
        memory.store_line(640, b"b")
        memory.store_line(1280, b"c")
        assert memory.written_lines(600, 100) == [640]

    def test_snapshot_restore(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.store_line(0, b"before")
        snap = memory.snapshot_image()
        memory.store_line(0, b"after")
        memory.restore_image(snap)
        assert memory.load_line(0) == b"before"

    def test_reset_timing_preserves_image(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.issue(0, Access.WRITE, 0, data=b"kept")
        memory.reset_timing()
        assert memory.traffic.total_writes == 0
        assert memory.load_line(0) == b"kept"


class TestRequest:
    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            NVMMainMemory(PCM_TIMING).issue(-1, Access.READ, 0)

    def test_kind_labels(self):
        memory = NVMMainMemory(PCM_TIMING)
        memory.issue(0, Access.WRITE, 0, RequestKind.PERSIST)
        assert memory.traffic.snapshot()["writes.persist"] == 1


class TestOverlap:
    def test_interval_bus_fills_gap_left_by_busy_bank(self):
        def third_read(overlap):
            memory = _one_channel()
            if overlap:
                memory.enable_overlap()
            memory.issue(0, Access.WRITE, 0)
            memory.issue(8 * 64, Access.WRITE, 0)  # bank 0 again: waits
            return memory.issue(64, Access.READ, 5)  # bank 1: idle

        # Dispatched at 8, after the writes' two slots, and read by 57.  The
        # watermark bus queues its burst behind the second write's (140);
        # the interval bus sends it in the idle slot before that.
        assert third_read(overlap=False) == 140 + Channel.BURST_CYCLES
        assert third_read(overlap=True) == 57 + Channel.BURST_CYCLES


class TestKernelMatchesReserveIntervalReference:
    """``issue_path`` in overlap mode against a few-line reference.

    The reference books each line on three calendars with nothing but
    :func:`reserve_interval`: dispatch, then the line's bank for
    ``service + gap`` cycles, then one burst on its channel's bus.  Every
    line of a burst searches from the burst's own arrival; the kernel's
    ratcheted floor and inline tail appends must land in the same slots.
    """

    @staticmethod
    def _reference(state, device, channels, banks, address, access, arrival):
        dispatch, bank_cals, bus_cals = state
        line = address // 64
        channel = line % channels
        bank = (line // channels) % banks
        service = device.service_cycles(access)
        dispatched = reserve_interval(dispatch, arrival, NVMMainMemory.DISPATCH_CYCLES)
        bank_start = reserve_interval(
            bank_cals[channel][bank], dispatched, service + device.min_gap_cycles()
        )
        burst = reserve_interval(bus_cals[channel], bank_start + service, Channel.BURST_CYCLES)
        return burst + Channel.BURST_CYCLES

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_random_non_monotone_bursts(self, channels):
        banks = 4
        memory = NVMMainMemory(PCM_TIMING, channels=channels, banks_per_channel=banks)
        memory.enable_overlap()
        state = ([], [[[] for _ in range(banks)] for _ in range(channels)],
                 [[] for _ in range(channels)])
        rng = random.Random(channels)
        now = 0
        for _ in range(400):
            # A drifting clock with rewound arrivals: tail appends and
            # gap fills both occur, and long calendars get pruned.
            now += rng.randrange(0, 80)
            arrival = max(0, now - rng.randrange(0, 600))
            access = Access.WRITE if rng.randrange(2) else Access.READ
            lines = [64 * rng.randrange(128) for _ in range(rng.randrange(1, 12))]
            expected = max(
                [arrival]
                + [
                    self._reference(state, memory.device, channels, banks, a, access, arrival)
                    for a in lines
                ]
            )
            assert memory.issue_path(lines, access, arrival) == expected
            dispatch, bank_cals, bus_cals = state
            assert memory._dispatch_intervals == dispatch
            assert memory._dispatch_free_at == dispatch[-1]
            for channel, bank_cal, bus_cal in zip(memory.channels, bank_cals, bus_cals):
                assert channel.bus_intervals == bus_cal
                assert [bank.intervals for bank in channel.banks] == bank_cal
                # The watermarks track each calendar's tail.
                assert channel.bus_free_at == (bus_cal[-1] if bus_cal else 0)
                assert [bank.busy_until for bank in channel.banks] == [
                    cal[-1] if cal else 0 for cal in bank_cal
                ]
