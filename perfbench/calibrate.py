"""Host-speed probe: host seconds converted to nominal seconds.

On a shared host the speed of the same Python work drifts by up to ~2x
over tens of seconds (neighbours on the same physical cores), as long as
a run lasts or longer, so host rates of whole runs scatter far more than
any program change of interest.  :class:`SpeedProbe` measures that drift
while a run goes on: between short segments of host-timed work the
harness calls :meth:`SpeedProbe.probe`, which times :func:`kernel`, a
fixed mix of the operations the simulator spends its time on (keyed
BLAKE2b over short messages, attribute and dict access in a table larger
than the L2 cache, int/bytes conversion, small sorts, interpreter-bound
loops).  The kernel shares no code or data with the program, so a change
to the program moves the measured work's time and not the kernel's.

A host interval converts to *nominal* seconds as
``seconds * NOMINAL_KERNEL_S / kernel_s``, with ``kernel_s`` the median
kernel time of the probes nearest the interval: the seconds the work
would have taken at the speed at which the kernel takes
:data:`NOMINAL_KERNEL_S`.  That constant is the definition of the unit:
a round number inside the range of the kernel's time on a 2-vCPU 2.1 GHz
Xeon sandbox (about 3.2 to 7.5 ms as the host's speed drifted), so nominal
seconds are of the order of wall seconds there.  On a faster machine both
the work and the kernel speed up: nominal times compare runs and commits,
not machines.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time
from typing import Dict, List, Tuple

#: Definition of the nominal second: the kernel takes this long at nominal speed.
NOMINAL_KERNEL_S = 0.005
#: Probes whose median gives the speed over an interval (nearest ones first).
PROBES_PER_ESTIMATE = 4

#: Iterations of the kernel's three parts.
_TABLE_ITERATIONS = 1_000
_LOOP_ITERATIONS = 3_000
_HASH_ITERATIONS = 1_500
#: Rows of the large table (misses in L2) and of the small one.
_TABLE_ROWS = 1 << 16
_SMALL_ROWS = 64
_KEY = b"perfbench-speed-probe-key-000000"
_MASK = (1 << 64) - 1


class _Row:
    __slots__ = ("tag", "value")

    def __init__(self, tag: int, value: bytes) -> None:
        self.tag = tag
        self.value = value


def _make_table(rows: int) -> Dict[int, _Row]:
    return {i: _Row(i, i.to_bytes(8, "little") * 4) for i in range(rows)}


def kernel(table: Dict[int, _Row], small: Dict[int, _Row], state: int) -> int:
    """One fixed unit of interpreter work; returns the next ``state``."""
    blake2b = hashlib.blake2b
    x = state
    window: List[int] = []
    mask = _TABLE_ROWS - 1
    for _ in range(_TABLE_ITERATIONS):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        row = table[(x >> 40) & mask]
        digest = blake2b(row.value, key=_KEY, digest_size=32).digest()
        row.value = digest
        row.tag ^= int.from_bytes(digest[:8], "little")
        window.append(row.tag & 0xFFFF)
        if len(window) == 16:
            window.sort()
            x ^= window[8]
            window.clear()
    small_mask = _SMALL_ROWS - 1
    for i in range(_LOOP_ITERATIONS):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        row = small[(x >> 40) & small_mask]
        row.tag = (row.tag + i) & 0xFFFF
        window.append(row.tag)
        if len(window) == 16:
            window.sort()
            x ^= window[8]
            window.clear()
    message = x.to_bytes(8, "little") * 8
    for _ in range(_HASH_ITERATIONS):
        message = blake2b(message, key=_KEY, digest_size=64).digest()
    return x ^ message[0]


class SpeedProbe:
    """Times :func:`kernel` on demand and converts host intervals to nominal seconds."""

    def __init__(self) -> None:
        self._table = _make_table(_TABLE_ROWS)
        self._small = _make_table(_SMALL_ROWS)
        self._state = 1
        #: Start, midpoint (``time.perf_counter``) and host seconds of every probe.
        self.starts: List[float] = []
        self.stamps: List[float] = []
        self.kernel_s: List[float] = []
        # Warm the table and the code before the first timed probe.
        for _ in range(3):
            self._state = kernel(self._table, self._small, self._state)

    def probe(self, times: int = 1) -> None:
        """Time the kernel ``times`` times."""
        perf = time.perf_counter
        for _ in range(times):
            start = perf()
            self._state = kernel(self._table, self._small, self._state)
            end = perf()
            self.starts.append(start)
            self.stamps.append((start + end) / 2)
            self.kernel_s.append(end - start)

    def kernel_s_near(self, start: float, end: float) -> float:
        """Median kernel time of the probes inside ``[start, end]`` and nearest it.

        Every probe inside the interval counts; if there are fewer than
        :data:`PROBES_PER_ESTIMATE`, the nearest ones outside fill up.
        """
        stamps = self.stamps
        if not stamps:
            raise RuntimeError("no speed probe taken")
        low = bisect.bisect_left(stamps, start)
        high = bisect.bisect_right(stamps, end)
        while high - low < PROBES_PER_ESTIMATE and (low > 0 or high < len(stamps)):
            if low == 0:
                high += 1
            elif high == len(stamps) or start - stamps[low - 1] <= stamps[high] - end:
                low -= 1
            else:
                high += 1
        return statistics.median(self.kernel_s[low:high])

    def nominal_s(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of host work done within ``[start, end]``, in nominal seconds."""
        return seconds * NOMINAL_KERNEL_S / self.kernel_s_near(start, end)

    def convert(self, start: float, end: float) -> Tuple[float, float]:
        """Host and nominal seconds of the work in ``[start, end]``, probes left out.

        The probes taken inside the interval split it into pieces of work;
        each piece is converted at the speed around it, so a speed change
        within a long interval is followed rather than averaged.
        """
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        host = nominal = 0.0
        piece_start = start
        for index in range(low, high + 1):
            if index < high:
                piece_end = self.starts[index]
                resume = piece_end + self.kernel_s[index]
            else:
                piece_end = resume = end
            seconds = piece_end - piece_start
            if seconds > 0:
                host += seconds
                nominal += self.nominal_s(seconds, piece_start, piece_end)
            piece_start = resume
        return host, nominal
