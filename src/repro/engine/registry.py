"""Variant registry: evaluated systems as hierarchy × policy × posmap rows.

Every system the paper evaluates is a :class:`VariantSpec` — an assembly
of one access hierarchy (path / ring / plain), one persistence policy and
one PosMap mode (flat on-chip vs recursive) — registered here by
:mod:`repro.core.variants`.  Nothing in the registry is a subclass; the
``factory`` closes over the assembly.

:func:`build_variant` is the one way to turn a name into a running
system: assemble the spec, attach the integrity domain when
``config.integrity`` is set, then put the controller behind the access
window (``config.sched_window``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.engine.sched import wrap_controller
from repro.integrity.domain import enable_integrity

DEFAULT_KEY = b"repro-psoram-key"


@dataclass(frozen=True)
class VariantSpec:
    """One evaluated system: a (hierarchy, policy, posmap) assembly."""

    name: str
    hierarchy: str  #: "path" | "ring" | "plain"
    policy: str  #: "volatile" | "naive-flush-all" | "dirty-entry-ps" | ...
    posmap: str  #: "flat" | "recursive"
    summary: str  #: one-line description for --list-variants
    factory: Callable

    def make(self, config, **kwargs):
        """Assemble this variant's bare controller for ``config``.

        ``kwargs`` are forwarded to the factory (``memory=``, ``key=``).
        Callers wanting a running system use :func:`build_variant`, which
        also honours ``config.integrity`` and ``config.sched_window``.
        """
        return self.factory(config, **kwargs)


REGISTRY: Dict[str, VariantSpec] = {}

#: The integrity axis: assemblies the crash matrix also runs with the
#: Merkle integrity domain attached (``config.integrity``), mapped to the
#: label such a cell carries (docs/INTEGRITY.md).
INTEGRITY_AXIS: Dict[str, str] = {
    "baseline": "baseline-int",
    "naive-ps": "naive-ps-int",
    "ps": "ps-int",
    "rcr-ps": "rcr-ps-int",
    "eadr-oram": "eadr-int",
}


def register(spec: VariantSpec) -> VariantSpec:
    REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    # The specs live in repro.core.variants (which imports the hierarchy
    # modules); load lazily so `import repro.engine` stays lightweight.
    if not REGISTRY:
        import repro.core.variants  # noqa: F401


def get_spec(name: str) -> VariantSpec:
    """Look up a registered spec by name (loud KeyError on a typo)."""
    _ensure_registered()
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown variant {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None


def build_variant(
    name: str,
    config,
    *,
    window: Optional[int] = None,
    memory=None,
    key: bytes = DEFAULT_KEY,
):
    """Build the named variant for ``config`` as a running system.

    ``config.integrity`` attaches the integrity domain to the bare
    controller, before the window wraps: the scheduler drains to a
    barrier around crash/recover, so the domain always sees a quiet
    machine.

    ``window`` overrides ``config.sched_window``; depth 1 returns the
    bare controller (zero wrapper overhead, timing-identical to the
    serial pipeline).
    """
    controller = get_spec(name).make(config, memory=memory, key=key)
    if config.integrity:
        enable_integrity(controller)
    return wrap_controller(
        controller,
        config.sched_window if window is None else window,
        segment=config.sched_segment,
        lookahead=config.sched_lookahead,
    )


#: Historical name, kept for callers that import it.
build_scheduled = build_variant


def variant_specs() -> List[VariantSpec]:
    """All registered specs, sorted by name."""
    _ensure_registered()
    return [REGISTRY[name] for name in sorted(REGISTRY)]
