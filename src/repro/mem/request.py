"""The labels a memory request carries: its access type and its purpose."""

from __future__ import annotations

import enum


class Access(enum.Enum):
    """Read or write."""

    READ = "read"
    WRITE = "write"


class RequestKind(enum.Enum):
    """What a request is for — used by traffic breakdown stats.

    The breakdown matters for reproducing Figure 6: reads/writes are counted
    separately for data-path accesses, PosMap accesses and persistence
    (WPQ-drain) writes.
    """

    DATA_PATH = "data_path"  # ORAM tree bucket read/write
    POSMAP = "posmap"  # PosMap region access (trusted or recursive tree)
    PERSIST = "persist"  # WPQ drain write
    ONCHIP_NVM = "onchip_nvm"  # FullNVM stash/PosMap built from NVM cells
    PLAIN = "plain"  # non-ORAM baseline access
    INTEGRITY = "integrity"  # Merkle digest / root witness persistence

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value
