"""Every evaluated system variant as a hierarchy × policy × posmap row.

No variant is *defined* here — each is an assembly of one access
hierarchy (``path`` / ``ring`` / ``hybrid`` / ``plain``), one persistence
policy (:mod:`repro.engine.policy`, :mod:`repro.engine.ps`, ...) and one
PosMap mode (``flat`` on-chip mirror vs ``recursive`` posmap tree),
registered as a :class:`repro.engine.registry.VariantSpec` (paper
Section 5.1):

=================  ============================================================
name               system
=================  ============================================================
``plain``          non-ORAM NVM (the 11x yardstick)
``baseline``       Path ORAM on NVM, no crash consistency
``fullnvm``        on-chip stash/PosMap built from PCM cells
``fullnvm-stt``    on-chip stash/PosMap built from STT-RAM cells
``naive-ps``       PS-ORAM persisting all Z*(L+1) PosMap entries per access
``ps``             PS-ORAM (dirty-entry persistence) — the paper's design
``rcr-baseline``   recursive ORAM, PosMap tree written every access, volatile
                   stash (persistent but not crash-consistent)
``rcr-ps``         recursive PS-ORAM (crash-consistent)
``eadr-oram``      extended-ADR: crash flush drains the stash (Table 2)
``ps-hybrid``      PS-ORAM with a write-through DRAM tree-top
``ring-baseline``  Ring ORAM on NVM, no crash consistency
``ring-ps``        crash-consistent Ring ORAM (in-place slot backup)
=================  ============================================================

Integrity is an axis, not a row: ``config.integrity`` attaches the
persistent Merkle integrity domain to any assembly
(:func:`repro.engine.registry.build_variant`), and the crash matrix runs
the assemblies in :data:`repro.engine.registry.INTEGRITY_AXIS` both ways
(docs/INTEGRITY.md).

``python -m repro --list-variants`` prints this matrix.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.config import STTRAM_TIMING
from repro.core.plain import PlainNVMController
from repro.core.recursive_ps import RcrPSORAMController
from repro.engine import registry
from repro.engine.eadr import EADRPolicy
from repro.engine.fullnvm import FullNVMPolicy
from repro.engine.ps import DirtyEntryPSPolicy, NaiveFlushAllPolicy, RingDirtyEntryPSPolicy
from repro.engine.registry import DEFAULT_KEY, VariantSpec
from repro.hybrid.controller import HybridPSORAMController
from repro.oram.controller import PathORAMController
from repro.oram.recursive import RecursivePathORAM
from repro.ring.controller import RingORAMController


def _with_policy(hierarchy: Callable, make_policy: Callable) -> Callable:
    """Factory for ``hierarchy`` driven by a fresh ``make_policy()``.

    Policies hold per-controller state once attached, so every built
    system gets its own instance.
    """

    def factory(config, memory=None, key=DEFAULT_KEY):
        return hierarchy(config, memory=memory, key=key, policy=make_policy())

    return factory


_SPECS = (
    VariantSpec(
        "plain", "plain", "volatile", "none",
        "non-ORAM NVM system — the paper's 11x yardstick",
        PlainNVMController,
    ),
    VariantSpec(
        "baseline", "path", "volatile", "flat",
        "Path ORAM on NVM, volatile stash/PosMap (no crash consistency)",
        PathORAMController,
    ),
    VariantSpec(
        "fullnvm", "path", "full-nvm", "flat",
        "on-chip stash/PosMap built from PCM cells",
        _with_policy(PathORAMController, FullNVMPolicy),
    ),
    VariantSpec(
        "fullnvm-stt", "path", "full-nvm-stt", "flat",
        "on-chip stash/PosMap built from STT-RAM cells",
        _with_policy(PathORAMController, partial(FullNVMPolicy, STTRAM_TIMING)),
    ),
    VariantSpec(
        "naive-ps", "path", "naive-flush-all", "flat",
        "PS-ORAM persisting all Z*(L+1) PosMap entries per access",
        _with_policy(PathORAMController, NaiveFlushAllPolicy),
    ),
    VariantSpec(
        "ps", "path", "dirty-entry-ps", "flat",
        "PS-ORAM with dirty-entry persistence — the paper's design",
        _with_policy(PathORAMController, DirtyEntryPSPolicy),
    ),
    VariantSpec(
        "rcr-baseline", "path", "volatile", "recursive",
        "recursive PosMap tree written every access; volatile stash",
        RecursivePathORAM,
    ),
    VariantSpec(
        "rcr-ps", "path", "dirty-entry-ps", "recursive",
        "recursive PS-ORAM with a persistent intent log (crash-consistent)",
        RcrPSORAMController,
    ),
    VariantSpec(
        "eadr-oram", "path", "eadr", "flat",
        "extended-ADR ORAM: the crash flush drains the stash into the tree",
        _with_policy(PathORAMController, EADRPolicy),
    ),
    VariantSpec(
        "ps-hybrid", "hybrid", "dirty-entry-ps", "flat",
        "PS-ORAM with a write-through DRAM tree-top cache",
        HybridPSORAMController,
    ),
    VariantSpec(
        "ring-baseline", "ring", "volatile", "flat",
        "Ring ORAM on NVM, volatile stash/PosMap (no crash consistency)",
        RingORAMController,
    ),
    VariantSpec(
        "ring-ps", "ring", "dirty-entry-ps", "flat",
        "crash-consistent Ring ORAM (in-place slot backup, atomic rounds)",
        _with_policy(RingORAMController, RingDirtyEntryPSPolicy),
    ),
)

for _spec in _SPECS:
    registry.register(_spec)

#: Variants evaluated in Figure 5(a) (non-recursive systems).
NON_RECURSIVE_VARIANTS = ("baseline", "fullnvm", "fullnvm-stt", "naive-ps", "ps")

#: Variants evaluated in Figure 5(b) (recursive systems).
RECURSIVE_VARIANTS = ("rcr-baseline", "rcr-ps")
