"""Crash-conformance cells and the one round loop that checks them.

A **cell** is one (variant, crash point, WPQ config) combination of the
campaign matrix (:mod:`repro.crashsim.matrix`).  :func:`run_cell` plans a
deterministic randomized workload as an op/crash event trace, one round
per crash, and runs it against a fresh system through
:func:`run_rounds`: drive the round's ops, cut power at the armed point,
power-cycle, and check the recovery contract.  Recovery is checked two
independent ways:

1. the acknowledged/in-flight **oracle**
   (:class:`~repro.crashsim.checker.ConsistencyChecker`) — durability of
   acknowledged writes, atomicity of the interrupted op;
2. the **differential** check
   (:func:`~repro.crashsim.reference.diff_logical_state`) — the same op
   sequence replayed on a lock-step volatile reference controller, then
   the *entire* logical span diffed post-recovery, catching bystander
   corruption the oracle cannot see.

The conformance contract is per variant class, and :func:`run_rounds` is
the only place it is written:

* a variant whose spec claims crash-consistency support must
  ``recover() == True``; an integrity domain's recovery violations fail
  the round before any logical check, then both checks must pass;
* a volatile variant must *honestly* report ``recover() == False`` —
  that is conformant (it gets a fresh system each round); a volatile
  variant claiming successful recovery is a violation.

The same loop replays reproducer traces (:mod:`repro.crashsim.minimize`)
and runs whole-service cells (:mod:`repro.serve.conformance`), so a
verdict means the same thing wherever it comes from.

Every cell is deterministic given ``(variant, integrity, point, wpq,
rounds, seed, height, window)``: the workload and injection RNGs are
keyed substreams of the cell seed, so violations reproduce bit-identically
and the recorded event trace replays through :mod:`repro.crashsim.minimize`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.config import WPQConfig, small_config
from repro.core.recovery import crash_and_recover
from repro.crashsim.checker import ConsistencyChecker
from repro.crashsim.injector import CrashInjector
from repro.crashsim.reference import ReferenceController, diff_logical_state
from repro.engine.registry import INTEGRITY_AXIS, build_variant, variant_specs
from repro.errors import SimulatedCrash
from repro.util.rng import DeterministicRNG

#: WPQ geometries a cell can run under.  "small" (4+4 entries) forces
#: multi-round evictions so the step-5 drain protocol chains rounds.
WPQ_CONFIGS: Dict[str, Optional[WPQConfig]] = {
    "default": None,
    "small": WPQConfig(4, 4),
}

#: Pseudo-point for crash-at-quiescence cells: the injector arms a label
#: no controller ever announces, so the power cut always lands *between*
#: accesses — the paper's "before the next ORAM access" window of Case 3.
QUIESCENT = "quiescent"
_NEVER_FIRES = "__quiescent__"

Event = Dict[str, Any]


@dataclass
class CellResult:
    """Outcome of one conformance cell (JSON round-trippable for the cache)."""

    variant: str
    point: Optional[str]  # None = random point per round
    wpq: str
    rounds: int
    seed: int
    height: int
    integrity: bool = False
    supports: bool = False
    operations: int = 0
    crashes_fired: int = 0
    quiescent_crashes: int = 0
    recoveries: int = 0
    wpq_blocks_applied: int = 0
    violations: List[str] = field(default_factory=list)
    #: Full op/crash trace — attached only when the cell found a
    #: violation, as input to reproducer minimization.
    trace: Optional[List[Event]] = None
    wall_seconds: float = 0.0

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__, violations=list(self.violations))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellResult":
        return cls(**payload)


def cell_systems() -> Dict[str, Tuple[str, bool]]:
    """Every system name a crash campaign accepts → (variant, integrity).

    The registry rows, plus one ``-int`` label per assembly on the
    integrity axis (the same assembly with the Merkle domain attached).
    """
    systems = {spec.name: (spec.name, False) for spec in variant_specs()}
    for name, label in INTEGRITY_AXIS.items():
        systems[label] = (name, True)
    return dict(sorted(systems.items()))


def run_rounds(system, rounds: Iterable[Any]) -> None:
    """Run the recovery contract over ``rounds``; record into ``system.result``.

    ``system`` is the system under test, a controller
    (:class:`ControllerSystem`) or a sharded service
    (:class:`repro.serve.conformance.ServiceSystem`).  It provides:

    * ``result`` — a cell result with ``supports``, ``crashes_fired``,
      ``quiescent_crashes``, ``recoveries`` and ``violations``;
    * ``drive(workload) -> (label, fired)`` — run one round's workload
      under its armed crash; ``label`` names the cut in violation text;
    * ``power_cycle() -> recovered`` — cut power to everything, recover;
    * ``integrity_domains()`` — ``(tag, domain)`` per integrity domain;
    * ``verify() -> violations`` and ``settle()`` — the logical check of
      the recovered state, and adopting the interrupted ops' survivors;
    * ``restart()`` — a fresh, empty system (after a volatile failure);
    * ``RECOVERY_FAILED`` / ``FALSE_RECOVERY`` — violation text for a
      failed recovery of a supporting system, and for a volatile system
      claiming success.

    The first violating round ends the run, as a real deployment would
    stop trusting the image at its first inconsistency.
    """
    result = system.result
    for round_no, workload in enumerate(rounds):
        label, fired = system.drive(workload)
        if fired:
            result.crashes_fired += 1
        else:
            result.quiescent_crashes += 1
        recovered = system.power_cycle()
        prefix = f"round {round_no} @ {label}"
        if not result.supports:
            if recovered:
                result.violations.append(f"{prefix}: {system.FALSE_RECOVERY}")
                return
            # Honest failure is conformant; the system restarts empty.
            system.restart()
            continue
        if not recovered:
            result.violations.append(f"{prefix}: {system.RECOVERY_FAILED}")
            return
        result.recoveries += 1
        # Integrity contract (docs/INTEGRITY.md): recovery must yield an
        # image whose recomputed root matches the persisted witness
        # *before* logical checking even starts — a recovered-but-
        # unverifiable state is a conformance failure.
        violations = [
            f"{tag}{violation}"
            for tag, domain in system.integrity_domains()
            for violation in domain.recovery_violations
        ] or system.verify()
        if violations:
            result.violations.extend(f"{prefix}: {v}" for v in violations)
            return
        system.settle()


class ControllerSystem:
    """One controller as the system under test of :func:`run_rounds`.

    A round's workload is a list of trace events: write/read ops, then
    one crash event that arms its point and drives its victim op (the
    event schema is in :mod:`repro.crashsim.minimize`).  Every op is
    lock-stepped with the oracle and the reference; every driven event
    is appended to :attr:`trace`, which a volatile restart clears.
    """

    RECOVERY_FAILED = "recovery failed on a variant that claims support"
    FALSE_RECOVERY = "volatile variant claims successful recovery"

    def __init__(self, result: CellResult, window: int = 1):
        self.result = result
        self.window = window
        self.trace: List[Event] = []
        self.restart()
        result.supports = self.controller.supports_crash_consistency()

    def restart(self) -> None:
        """Build the cell's system fresh; ``window > 1`` puts the controller
        behind the memory-level-parallel access window (docs/SCHEDULER.md).
        The scheduler drains to a barrier on every crash, so the contract
        is unchanged — this exercises exactly that property."""
        result = self.result
        config = small_config(height=result.height, seed=result.seed,
                              wpq=WPQ_CONFIGS[result.wpq],
                              sched_window=self.window,
                              integrity=result.integrity)
        self.controller = build_variant(result.variant, config)
        self.span = max(8, config.oram.num_logical_blocks // 8)
        self.checker = ConsistencyChecker(self.controller)
        self.reference = ReferenceController(self.span,
                                             config.oram.block_bytes)
        self.injector = CrashInjector(self.controller)
        self.trace.clear()

    def drive(self, events: Sequence[Event]) -> Tuple[str, bool]:
        *ops, crash = events
        for event in ops:
            if event["op"] == "write":
                data = bytes.fromhex(event["data"])
                self.checker.write(event["addr"], data)
                self.reference.write(event["addr"], data)
            elif event["op"] == "read":
                self.checker.read(event["addr"])
            else:
                raise ValueError(f"unknown trace op {event['op']!r}")

        victim = crash["victim"]
        address = victim["addr"]
        self.injector.arm(crash["point"], skip_hits=crash.get("skip", 0))
        try:
            if victim["op"] == "write":
                data = bytes.fromhex(victim["data"])
                self.checker.write(address, data)
                self.reference.write(address, data)
            else:
                self.checker.read(address)
        except SimulatedCrash:
            # An interrupted write is already in the checker's in-flight
            # window; an interrupted read must leave its block as-is.
            if victim["op"] == "read":
                self.checker.note_interrupted_read(address)
        self.injector.disarm()
        self.trace.extend(events)
        self.result.operations += len(events)
        fired = self.injector.fired_point
        return fired or "quiescent", fired is not None

    def power_cycle(self) -> bool:
        report = crash_and_recover(self.controller)
        self.result.wpq_blocks_applied += report.wpq_blocks_applied or 0
        return report.recovered

    def integrity_domains(self) -> List[Tuple[str, Any]]:
        domain = getattr(self.controller, "integrity", None)
        return [] if domain is None else [("", domain)]

    def verify(self) -> List[str]:
        return self.checker.verify().violations or diff_logical_state(
            self.controller, self.reference, self.checker.in_flight_window)

    def settle(self) -> None:
        """Adopt the interrupted op's surviving value on both sides."""
        self.reference.apply(self.checker.settle())


def _plan_rounds(ops_rng: DeterministicRNG, inject_rng: DeterministicRNG,
                 span: int, points: List[str], point: Optional[str],
                 wpq: str, rounds: int,
                 ops_between_crashes: int) -> Iterator[List[Event]]:
    """One event list per round: a workload burst, then the crash event."""
    for round_no in range(rounds):
        events: List[Event] = []
        for i in range(ops_between_crashes):
            address = ops_rng.randrange(span)
            if ops_rng.random() < 0.7:
                data = bytes([ops_rng.randint(0, 255), i % 256])
                events.append({"op": "write", "addr": address,
                               "data": data.hex()})
            else:
                events.append({"op": "read", "addr": address})

        if point == QUIESCENT:
            armed = _NEVER_FIRES
        elif point is not None:
            armed = point
        else:
            armed = inject_rng.choice(points)
        # A checkpoint fires once per single-round access; skipping hits
        # only matters when small WPQs chain multiple drain rounds.  The
        # first round never skips, so a pinned cell is guaranteed to hit
        # its label at least once whenever the label is reachable.
        skip = inject_rng.randint(0, 2) if wpq == "small" and round_no > 0 else 0
        victim = ops_rng.randrange(span)
        if ops_rng.random() < 0.85:
            payload = bytes([ops_rng.randint(0, 255), 0xAA])
            target = {"op": "write", "addr": victim, "data": payload.hex()}
        else:
            target = {"op": "read", "addr": victim}
        events.append({"op": "crash", "point": armed, "skip": skip,
                       "victim": target})
        yield events


def run_cell(
    variant: str,
    point: Optional[str] = None,
    wpq: str = "default",
    rounds: int = 3,
    seed: int = 1,
    height: int = 6,
    ops_between_crashes: int = 8,
    window: int = 1,
    integrity: bool = False,
) -> CellResult:
    """Run one conformance cell; see the module docstring for the contract.

    ``point=None`` arms a random point each round (fuzzing mode);
    a fixed ``point`` pins every round's crash to that label (matrix
    mode).  ``integrity`` attaches the Merkle integrity domain
    (``config.integrity``), which adds the recovered-root-matches-witness
    check to the contract.
    """
    if wpq not in WPQ_CONFIGS:
        raise ValueError(f"unknown WPQ config {wpq!r}; "
                         f"choose from {sorted(WPQ_CONFIGS)}")
    cell_rng = DeterministicRNG(seed)
    result = CellResult(variant=variant, point=point, wpq=wpq, rounds=rounds,
                        seed=seed, height=height, integrity=integrity)
    system = ControllerSystem(result, window)
    points = list(system.controller.crash_points())
    if point is not None and point != QUIESCENT and point not in points:
        raise ValueError(f"variant {variant!r} has no crash point {point!r}")

    started = time.perf_counter()
    run_rounds(system, _plan_rounds(
        cell_rng.substream("ops"), cell_rng.substream("inject"), system.span,
        points, point, wpq, rounds, ops_between_crashes))
    result.wall_seconds = time.perf_counter() - started
    if result.violations:
        result.trace = system.trace
    return result
