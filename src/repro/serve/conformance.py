"""Service-level crash conformance: the cell contract, lifted to shards.

:func:`run_service_cell` runs the whole sharded service through the same
round loop as a single-controller cell
(:func:`repro.crashsim.conformance.run_rounds`): a deterministic request
burst is driven through the inline front end, a power failure is
injected mid-burst at any shard's engine/policy crash point (or between
batches for the quiescent cell), every shard loses power at once, and
recovery is checked against a lock-step per-key reference.  The loop
owns the contract — supporting services must recover, every shard's
integrity domain must verify before any read-back, volatile services
must honestly fail and restart empty — and :class:`ServiceSystem`
supplies the key-level checks:

* every **acknowledged** op (its request resolved before the cut) must
  be durable: acknowledged puts read back exactly, acknowledged deletes
  stay gone;
* every **unacknowledged** op is atomic per key: after recovery the key
  holds its last acknowledged value or the value of an unacknowledged
  put to it — never a torn mix, never a value from nowhere;
* **bystander keys** — the whole key universe is swept, so a recovery
  that corrupts a key the burst never touched still fails the cell.

Determinism: the burst, the armed point and the injection skip count are
keyed substreams of the cell seed, so a violating cell replays
bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.crashsim.conformance import run_rounds
from repro.crashsim.injector import CrashInjector
from repro.errors import ServiceCrashedError, SimulatedCrash
from repro.serve.batcher import OP_DELETE, OP_GET, OP_PUT
from repro.serve.frontend import SERVICE_QUIESCENT, ShardedKVService
from repro.util.rng import DeterministicRNG

#: Sentinel for "key absent" in the reference and tolerance sets.
MISSING = None


@dataclass
class ServiceCellResult:
    """Outcome of one service conformance cell (JSON round-trippable)."""

    shards: int
    variant: str
    point: Optional[str]
    rounds: int
    seed: int
    batch_max: int
    height: int
    window: int = 1
    integrity: bool = False
    supports: bool = False
    operations: int = 0
    acknowledged: int = 0
    crashes_fired: int = 0
    quiescent_crashes: int = 0
    recoveries: int = 0
    coalesced_ops: int = 0
    violations: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__, violations=list(self.violations))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceCellResult":
        return cls(**payload)


def _burst(ops_rng: DeterministicRNG, keys: List[str], length: int,
           round_no: int) -> List[Tuple]:
    """One deterministic mixed burst over the key universe."""
    ops: List[Tuple] = []
    for i in range(length):
        key = ops_rng.choice(keys)
        draw = ops_rng.random()
        if draw < 0.6:
            value = bytes([ops_rng.randint(0, 255), i % 256, round_no % 256])
            # Occasional multi-chunk value exercises chained allocation.
            if ops_rng.random() < 0.15:
                value = value * 40  # 120 bytes -> 2 chunks
            ops.append((OP_PUT, key, value))
        elif draw < 0.9:
            ops.append((OP_GET, key))
        else:
            ops.append((OP_DELETE, key))
    return ops


class ServiceSystem:
    """The sharded service as the system under test of
    :func:`~repro.crashsim.conformance.run_rounds`.

    A round's workload is ``(armed, skip, ops)``: the crash point to arm
    (``shard<i>:<label>`` or :data:`SERVICE_QUIESCENT`), how many of its
    hits to skip, and the request burst.  Driving a round folds every
    acknowledgement into the lock-step per-key reference and records a
    tolerance set for each key an unacknowledged mutation touched.
    """

    RECOVERY_FAILED = ("recovery failed on a service whose shards all "
                       "claim crash-consistency support")
    FALSE_RECOVERY = "service over a volatile variant claims successful recovery"

    def __init__(self, result: ServiceCellResult, keys: List[str]):
        self.result = result
        self.keys = keys
        #: The lock-step reference: key -> last acknowledged value (absent
        #: = MISSING).  Service-level analogue of crashsim's
        #: ReferenceController.
        self.reference: Dict[str, bytes] = {}
        self.tolerated: Dict[str, Set] = {}
        self.restart()
        result.supports = all(
            worker.controller.supports_crash_consistency()
            for worker in self.service.workers
        )

    def restart(self) -> None:
        result = self.result
        self.service = ShardedKVService(
            shards=result.shards, variant=result.variant,
            height=result.height, batch_max=result.batch_max,
            seed=result.seed, mode="inline", integrity=result.integrity,
            window=result.window,
        ).start()
        self.reference.clear()

    def drive(self, workload) -> Tuple[str, bool]:
        armed, skip, ops = workload
        injector = None
        if armed != SERVICE_QUIESCENT:
            shard_label, _, engine_label = armed.partition(":")
            shard_index = int(shard_label[len("shard"):])
            injector = CrashInjector(self.service.workers[shard_index].controller)
            injector.arm(engine_label, skip_hits=skip)
        requests = self.service.route(ops)
        self.result.operations += len(requests)
        crashed = False
        try:
            self.service.run_batches(requests)
        except SimulatedCrash:
            crashed = True
        if injector is not None:
            injector.disarm()
        self._fold(requests)
        return armed, (crashed and injector is not None
                       and injector.fired_point is not None)

    def _fold(self, requests) -> None:
        """Fold acknowledgements into the reference, build tolerance.

        Per-key ordering is sound: a key always routes to one shard and
        shard batches preserve FIFO, so folding in input order applies
        each key's acknowledged ops in their true execution order.
        """
        reference = self.reference
        self.tolerated = {}
        for request in requests:
            acked = request.done and not isinstance(
                request.error, ServiceCrashedError
            )
            if acked:
                self.result.acknowledged += 1
                if request.error is not None:
                    continue  # semantic failure (e.g. full): state unchanged
                if request.op == OP_PUT:
                    reference[request.key] = request.value
                elif request.op == OP_DELETE:
                    reference.pop(request.key, None)
            elif request.op in (OP_PUT, OP_DELETE):
                # In flight at the cut: the key may legally recover to its
                # last acknowledged value or to any unacknowledged value
                # staged for it (write coalescing commits only the final
                # one, but the wider set keeps the check sound).
                tolerance = self.tolerated.setdefault(
                    request.key, {reference.get(request.key, MISSING)}
                )
                tolerance.add(request.value if request.op == OP_PUT else MISSING)

    def power_cycle(self) -> bool:
        """Whole-service power cut: every shard loses power at once."""
        self.service.crash()
        return self.service.recover()

    def integrity_domains(self) -> List[Tuple[str, Any]]:
        return [
            (f"shard{worker.index}: ", worker.controller.integrity)
            for worker in self.service.workers
            if getattr(worker.controller, "integrity", None) is not None
        ]

    def _read_back(self, key: str) -> Optional[bytes]:
        try:
            return self.service.get(key)
        except KeyError:
            return MISSING

    def verify(self) -> List[str]:
        """Sweep the whole key universe against reference + tolerance."""
        violations = []
        for key in self.keys:
            actual = self._read_back(key)
            got = "absent" if actual is MISSING else actual[:8].hex()
            if key in self.tolerated:
                if actual not in self.tolerated[key]:
                    want = sorted(
                        "absent" if v is MISSING else v[:8].hex()
                        for v in self.tolerated[key]
                    )
                    violations.append(
                        f"key {key!r} in-flight torn "
                        f"(got {got}, tolerated {want})"
                    )
                continue
            expected = self.reference.get(key, MISSING)
            if actual != expected:
                want = "absent" if expected is MISSING else expected[:8].hex()
                violations.append(
                    f"key {key!r} diverged from reference "
                    f"(acknowledged {want}, recovered {got})"
                )
        return violations

    def settle(self) -> None:
        """Adopt each in-flight key's surviving value before the next round."""
        for key in self.tolerated:
            survivor = self._read_back(key)
            if survivor is MISSING:
                self.reference.pop(key, None)
            else:
                self.reference[key] = survivor


def _plan_rounds(ops_rng: DeterministicRNG, inject_rng: DeterministicRNG,
                 all_points: List[str], point: Optional[str], keys: List[str],
                 rounds: int, ops_per_burst: int) -> Iterator[Tuple]:
    """One ``(armed, skip, ops)`` workload per round."""
    for round_no in range(rounds):
        armed = point if point is not None else inject_rng.choice(all_points)
        skip = 0
        if armed != SERVICE_QUIESCENT:
            # A kvstore op is several ORAM accesses; skipping a uniform
            # number of hits lands the cut anywhere in the burst, so both
            # early (nothing acknowledged) and late (most of the burst
            # durable) power failures get exercised.
            skip = inject_rng.randint(0, 20)
        yield armed, skip, _burst(ops_rng, keys, ops_per_burst, round_no)


def run_service_cell(
    shards: int = 2,
    variant: str = "ps",
    point: Optional[str] = None,
    rounds: int = 3,
    seed: int = 1,
    height: int = 6,
    ops_per_burst: int = 24,
    batch_max: int = 4,
    num_keys: int = 12,
    integrity: bool = False,
    window: int = 1,
) -> ServiceCellResult:
    """Run one service-crash conformance cell; see the module docstring.

    ``point=None`` arms a random service crash point each round (fuzzing
    mode); a fixed point — ``shard<i>:<label>`` or
    :data:`SERVICE_QUIESCENT` — pins every round's cut (matrix mode).

    ``window > 1`` runs every shard behind the shared per-shard
    :class:`~repro.engine.sched.WindowScheduler`: batch loads/commits
    stream into the in-flight window and the worker drains to a barrier
    at batch boundaries, so crash cells exercise the scheduler's
    drain-before-power-cut discipline.
    """
    cell_rng = DeterministicRNG(seed)
    result = ServiceCellResult(
        shards=shards, variant=variant, point=point, rounds=rounds,
        seed=seed, batch_max=batch_max, height=height, window=window,
        integrity=integrity,
    )
    keys = [f"key-{index}" for index in range(num_keys)]
    system = ServiceSystem(result, keys)
    all_points = system.service.crash_points()
    if point is not None and point not in all_points:
        raise ValueError(
            f"service over {variant!r} x{shards} has no crash point {point!r}"
        )

    started = time.perf_counter()
    run_rounds(system, _plan_rounds(
        cell_rng.substream("service-ops"), cell_rng.substream("service-inject"),
        all_points, point, keys, rounds, ops_per_burst))
    totals = system.service.status()["totals"]
    result.coalesced_ops = totals["coalesced_reads"] + totals["coalesced_writes"]
    result.wall_seconds = time.perf_counter() - started
    return result
