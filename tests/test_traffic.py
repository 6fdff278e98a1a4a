"""Unit tests for traffic and wear accounting."""

from repro.mem.request import Access, RequestKind
from repro.mem.traffic import TrafficMeter


def _record(meter, line, access, kind=RequestKind.DATA_PATH):
    """Account one line request, as the timing kernel does."""
    meter.record_burst(access, kind, 1, [line] if access is Access.WRITE else None)


class TestTrafficBreakdown:
    def test_counts_by_kind(self):
        meter = TrafficMeter()
        _record(meter, 0, Access.READ)
        _record(meter, 1, Access.WRITE, RequestKind.PERSIST)
        _record(meter, 2, Access.WRITE, RequestKind.POSMAP)
        assert meter.total_reads == 1
        assert meter.total_writes == 2
        assert meter.writes_of(RequestKind.PERSIST) == 1
        assert meter.writes_of(RequestKind.POSMAP) == 1
        assert meter.reads_of(RequestKind.PERSIST) == 0

    def test_byte_totals(self):
        meter = TrafficMeter()
        _record(meter, 0, Access.READ)
        assert meter.read_bytes == 64

    def test_snapshot_keys(self):
        meter = TrafficMeter()
        _record(meter, 0, Access.WRITE)
        snap = meter.snapshot()
        assert snap["writes.total"] == 1
        assert snap["writes.data_path"] == 1


class TestWear:
    def test_hotspot_detection(self):
        meter = TrafficMeter(track_wear=True)
        for _ in range(10):
            _record(meter, 0, Access.WRITE)
        _record(meter, 1, Access.WRITE)
        assert meter.max_line_writes() == 10
        assert meter.wear_imbalance() > 1.5

    def test_even_wear(self):
        meter = TrafficMeter(track_wear=True)
        for line in range(8):
            _record(meter, line, Access.WRITE)
        assert meter.wear_imbalance() == 1.0

    def test_wear_untracked_by_default(self):
        meter = TrafficMeter()
        _record(meter, 0, Access.WRITE)
        assert meter.max_line_writes() == 0

    def test_reset(self):
        meter = TrafficMeter(track_wear=True)
        _record(meter, 0, Access.WRITE)
        meter.reset()
        assert meter.total_writes == 0
        assert meter.max_line_writes() == 0

