"""NVM memory substrate.

Models the off-chip persistent-memory system the ORAM tree lives in:

* :mod:`repro.mem.request` — the access-type and request-kind enums.
* :mod:`repro.mem.device` — per-technology timing (PCM / STT-RAM / DRAM).
* :mod:`repro.mem.bank` / :mod:`repro.mem.channel` — bank and bus
  occupancy state (the timing arithmetic is the controller's).
* :mod:`repro.mem.controller` — the multi-channel memory controller (the
  one timing kernel) plus a byte-addressable backing store (the "NVM
  chips").
* :mod:`repro.mem.wpq` / :mod:`repro.mem.persistence` — the ADR persistence
  domain: write-pending queues whose content survives a crash.
* :mod:`repro.mem.traffic` — read/write traffic and wear accounting.
"""

from repro.mem.controller import NVMMainMemory
from repro.mem.device import DeviceTimingModel
from repro.mem.persistence import PersistenceDomain
from repro.mem.request import Access
from repro.mem.traffic import TrafficMeter
from repro.mem.wpq import WritePendingQueue

__all__ = [
    "Access",
    "DeviceTimingModel",
    "NVMMainMemory",
    "PersistenceDomain",
    "TrafficMeter",
    "WritePendingQueue",
]
