"""Bank state: tracks when a bank next becomes free.

A bank services one request at a time.  The model keeps a single
``busy_until`` watermark per bank; a request arriving earlier waits, and the
bank then stays occupied for the device's service time plus the
command-to-command gap.

Two scheduling modes:

* **watermark** (default) — one ``busy_until`` cursor; a request is
  serviced no earlier than the end of the *last-scheduled* request, even
  when it arrives while the bank is genuinely idle.  Exact and fast for
  in-order traffic (arrivals never decrease across calls), which is all
  the serial access pipeline produces.
* **interval** (:meth:`enable_overlap`) — a sorted busy-interval
  calendar; a request arriving during an idle gap is serviced in that
  gap.  The two modes are cycle-identical for in-order traffic (a
  monotone arrival can never land before the watermark), so enabling
  overlap on a serial workload changes nothing; it only matters once the
  window scheduler issues a younger access's fetch *earlier* than an
  older access's already-scheduled write-back.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

#: Busy-interval calendars are pruned to this many intervals; the oldest
#: two intervals merge (treating the gap between them as busy), which is
#: conservative — it can only delay a request, never accelerate one.
MAX_INTERVALS = 32

#: A calendar is a *flat* sorted list of interval boundaries, so the
#: length cap in boundary terms is twice the interval cap.
MAX_BOUNDARIES = 2 * MAX_INTERVALS


def reserve_interval(calendar: List[int], arrival: int, span: int) -> int:
    """Reserve ``span`` cycles at the earliest idle gap at/after ``arrival``.

    ``calendar`` is a flat, strictly-increasing boundary list
    ``[s0, e0, s1, e1, ...]`` of disjoint, non-adjacent busy windows
    ``[s, e)`` — flat so the lookup is a C-speed :func:`bisect_right`
    instead of a Python scan.  The chosen window is inserted (coalescing
    with neighbours) and its start returned.
    """
    n = len(calendar)
    # Fast path: arrival at/after the calendar tail (the overwhelmingly
    # common in-order case) appends in O(1) instead of searching.
    if n == 0 or arrival > calendar[-1]:
        calendar.append(arrival)
        calendar.append(arrival + span)
        if n + 2 > MAX_BOUNDARIES:
            del calendar[1:3]
        return arrival
    if arrival == calendar[-1]:
        calendar[-1] = arrival + span
        return arrival
    # boundary index: even = arrival sits in the idle gap before interval
    # index // 2; odd = arrival sits inside interval (index - 1) // 2.
    index = bisect_right(calendar, arrival)
    if index & 1:
        t = calendar[index]  # busy: next idle point is that interval's end
        index += 1           # index of the next interval-start boundary
    else:
        t = arrival
    # Walk forward until the gap [t, t + span) clears the next interval.
    while index < n and calendar[index] < t + span:
        t = calendar[index + 1]
        index += 2
    end = t + span
    # Insert [t, end) at boundary position ``index``, coalescing where the
    # edges touch (calendar[index - 1] is the previous interval's end or
    # absent; calendar[index] is the next interval's start or absent).
    touches_previous = index > 0 and calendar[index - 1] == t
    touches_next = index < n and calendar[index] == end
    if touches_previous:
        if touches_next:
            del calendar[index - 1:index + 1]
        else:
            calendar[index - 1] = end
    elif touches_next:
        calendar[index] = t
    else:
        calendar[index:index] = (t, end)
        if len(calendar) > MAX_BOUNDARIES:
            del calendar[1:3]
    return t


class Bank:
    """One NVM bank's occupancy: a busy-until watermark or interval calendar.

    The arithmetic lives in :meth:`NVMMainMemory.issue_physical`; a bank is
    the state it reads and advances.
    """

    __slots__ = ("index", "busy_until", "serviced", "intervals")

    def __init__(self, index: int):
        self.index = index
        self.busy_until = 0
        self.serviced = 0
        #: ``None`` = watermark mode; a flat boundary list = interval
        #: (overlap) mode.
        self.intervals: Optional[List[int]] = None

    def enable_overlap(self) -> None:
        """Switch to interval scheduling (idempotent; keeps current state)."""
        if self.intervals is None:
            self.intervals = [0, self.busy_until] if self.busy_until else []

    def reset(self) -> None:
        """Clear timing state (bank contents are in the backing store)."""
        self.busy_until = 0
        self.serviced = 0
        if self.intervals is not None:
            self.intervals = []
