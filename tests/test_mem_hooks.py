"""The memory's explicit hooks: ``bus_tap`` (bus observer) and ``remap``
(Start-Gap).  Attaching either leaves the memory's methods alone, so the
timing kernel that serves observed or leveled traffic is the same one that
serves plain traffic.
"""

import pytest

from repro.config import PCM_TIMING
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access
from repro.mem.wearlevel import StartGapRemapper
from repro.security.observer import BusObserver, ObservedAccess

_PATCHABLE = {"issue", "issue_path", "store_line", "load_line"}


def _write_lines(memory, count):
    for i in range(count):
        memory.issue(64 * i, Access.WRITE, 0, data=bytes([i + 1]) * 64)


class TestNoInstancePatching:
    def test_observer_leaves_no_instance_methods(self):
        memory = NVMMainMemory(PCM_TIMING)
        with BusObserver(memory):
            _write_lines(memory, 2)
            assert not _PATCHABLE & vars(memory).keys()
        assert not _PATCHABLE & vars(memory).keys()
        assert memory.bus_tap is None

    def test_remapper_leaves_no_instance_methods(self):
        memory = NVMMainMemory(PCM_TIMING)
        remapper = StartGapRemapper(memory, base=0, num_lines=16, gap_period=4)
        _write_lines(memory, 8)
        assert not _PATCHABLE & vars(memory).keys()
        remapper.detach()
        assert memory.remap is None

    def test_second_remapper_is_refused(self):
        memory = NVMMainMemory(PCM_TIMING)
        StartGapRemapper(memory, base=0, num_lines=16)
        with pytest.raises(ValueError):
            StartGapRemapper(memory, base=0, num_lines=16)


class TestDetachedObserver:
    def test_records_nothing_after_detach(self):
        memory = NVMMainMemory(PCM_TIMING)
        with BusObserver(memory) as observer:
            memory.issue(0, Access.READ, 0)
        memory.issue(64, Access.READ, 0)
        memory.issue_path([128, 192], Access.WRITE, 0)
        assert observer.addresses() == [0]
        assert memory.bus_tap is None

    def test_second_observer_is_refused(self):
        memory = NVMMainMemory(PCM_TIMING)
        with BusObserver(memory):
            with pytest.raises(ValueError):
                BusObserver(memory)
        with BusObserver(memory) as observer:  # the slot is free again
            memory.issue(0, Access.READ, 0)
        assert observer.addresses() == [0]


class TestStartGapCellFlips:
    def test_leveled_writes_count_the_same_bits(self):
        def bits(level):
            memory = NVMMainMemory(PCM_TIMING)
            if level:
                StartGapRemapper(memory, base=0, num_lines=16)
            _write_lines(memory, 8)
            return memory.traffic.bits_written, memory.traffic.bits_flipped

        assert bits(level=True) == bits(level=False) == (8 * 512, 64 * (1 + 1 + 2 + 1 + 2 + 2 + 3 + 1))


class TestObserverSeesPhysicalLines:
    @pytest.mark.parametrize("observer_first", [True, False])
    def test_translated_lines_and_gap_moves(self, observer_first):
        memory = NVMMainMemory(PCM_TIMING)
        if observer_first:
            observer = BusObserver(memory)
        remapper = StartGapRemapper(memory, base=0, num_lines=16, gap_period=4)
        if not observer_first:
            observer = BusObserver(memory)
        expected = []
        for i in range(8):
            address = 64 * (i % 3)
            expected.append(ObservedAccess(remapper.translate(address), True, "data_path"))
            memory.issue(address, Access.WRITE, 0, data=bytes([i]) * 64)
            if i == 3:  # the gap walks down from slot 16: 15 -> 16
                expected += [ObservedAccess(15 * 64, False, "plain"),
                             ObservedAccess(16 * 64, True, "plain")]
            if i == 7:  # then 14 -> 15
                expected += [ObservedAccess(14 * 64, False, "plain"),
                             ObservedAccess(15 * 64, True, "plain")]
        assert observer.events == expected
        assert remapper.stats.get("gap_moves") == 2
        # The randomizing permutation moves at least one of the lines.
        assert any(remapper.translate(64 * i) != 64 * i for i in range(3))
