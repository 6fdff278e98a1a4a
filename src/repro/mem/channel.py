"""Memory channel: a command/data bus shared by several banks.

Bank-level parallelism overlaps array access time, but the channel bus can
carry only one line transfer at a time.  We model the bus as a second
busy-until watermark: a request first occupies its bank, then its line
transfer waits for a free bus slot and holds the bus for a fixed burst
time.  The arithmetic lives in :meth:`NVMMainMemory.issue_physical`.

Like :class:`~repro.mem.bank.Bank`, the bus supports two scheduling
modes — the default watermark (exact for in-order traffic) and an
interval calendar (:meth:`Channel.enable_overlap`) that lets a burst
arriving during an idle bus gap use that gap.  The modes are
cycle-identical for monotone arrivals; the window scheduler enables
overlap so a younger access's fetch bursts can interleave with an older
access's still-queued write-back.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mem.bank import Bank


class Channel:
    """One channel with ``num_banks`` banks behind a shared bus."""

    # Cycles the bus is held per line transfer (64B over a 8B-wide 400MHz
    # bus in burst mode — matches NVMain's default burst of 8 beats).
    BURST_CYCLES = 4

    def __init__(self, index: int, num_banks: int = 8):
        if num_banks < 1:
            raise ValueError(f"need at least one bank, got {num_banks}")
        self.index = index
        self.banks: List[Bank] = [Bank(i) for i in range(num_banks)]
        self.bus_free_at = 0
        self.serviced = 0
        #: ``None`` = watermark mode; a flat boundary list = interval
        #: (overlap) mode.
        self.bus_intervals: Optional[List[int]] = None

    def enable_overlap(self) -> None:
        """Interval-schedule the bus and every bank (idempotent)."""
        if self.bus_intervals is None:
            self.bus_intervals = [0, self.bus_free_at] if self.bus_free_at else []
        for bank in self.banks:
            bank.enable_overlap()

    def reset(self) -> None:
        self.bus_free_at = 0
        self.serviced = 0
        if self.bus_intervals is not None:
            self.bus_intervals = []
        for bank in self.banks:
            bank.reset()
