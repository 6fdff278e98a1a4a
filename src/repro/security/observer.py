"""Memory-bus observer: what a physical attacker sees.

The threat model (paper Section 2.1) grants the adversary the address,
command and data buses — addresses and read/write types in cleartext, data
as ciphertext.  The observer hooks an :class:`NVMMainMemory` and records
exactly that view, so the analysis module can test whether two logical
access sequences are distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind


@dataclass(frozen=True)
class ObservedAccess:
    """One bus event visible to the adversary."""

    address: int
    is_write: bool
    kind: str  # visible only as a region in practice; kept for analysis


class BusObserver:
    """Records every line the memory's timing kernel puts on the bus.

    It attaches as the memory's ``bus_tap``, so observed traffic is timed
    by the same code as unobserved traffic.  Addresses are physical: with
    a wear-leveling layer attached, the translated lines and the layer's
    gap-move copies.
    """

    def __init__(self, memory: NVMMainMemory):
        if memory.bus_tap is not None:
            raise ValueError("memory already has a bus tap")
        self.memory = memory
        self.events: List[ObservedAccess] = []
        memory.bus_tap = self._tap

    def _tap(self, addresses: List[int], access: Access, kind: RequestKind) -> None:
        is_write = access is Access.WRITE
        self.events.extend(
            ObservedAccess(address, is_write, kind.value) for address in addresses
        )

    def detach(self) -> None:
        """Stop observing; idempotent."""
        if self.memory.bus_tap == self._tap:
            self.memory.bus_tap = None

    def addresses(self) -> List[int]:
        return [event.address for event in self.events]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __enter__(self) -> "BusObserver":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()
