"""What the three workloads share: snapshots, counters, per-layer metrics.

A workload drives the system only through public entry points
(``SimulatedSystem.step``, the controllers' ``read``/``write``/``access``/
``crash``/``recover``, ``ShardedKVService.shard_for`` with
``ShardWorker.execute_batch``) and reads public attributes (clocks, stats,
traffic meters) to compute metrics.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from harness import CORE_HZ, percentile
from repro.mem.channel import Channel
from repro.mem.request import Access

#: Per-layer metrics only some workloads compute (in ``layer_extra``).
ZERO_UNLESS_EXERCISED = (
    "cache.llc_miss_share",
    "crashsim.crashes_by_origin.engine",
    "crashsim.crashes_by_origin.policy",
    "crashsim.crashes_by_origin.integrity",
    "crashsim.interrupted_ops",
    "crashsim.recover_ok_share",
    "crashsim.violations",
    "serve.batch_fill_mean",
    "serve.coalesced_share",
    "serve.shard_busy_share_max",
)

#: Traffic kinds reported per access by the ``mem`` layer.
TRAFFIC_KINDS = ("DATA_PATH", "POSMAP", "PERSIST", "INTEGRITY")


def controller_snapshot(controller) -> Dict:
    """Every modeled output of one scheduler-wrapped controller."""
    engine = controller.controller
    return {
        "now": controller.now,
        "engine_now": engine.now,
        "traffic": dict(sorted(controller.memory.traffic.snapshot().items())),
        "bits_flipped": controller.memory.traffic.bits_flipped,
        "stats": dict(sorted(engine.stats.snapshot().items())),
        "crypto": dict(sorted(engine.engine.stats.snapshot().items())),
    }


class Workload:
    """Base of the three workloads (see each module for the specifics)."""

    name = ""
    #: Requests per second of ``--seconds``: the timed span completes
    #: ``REQUESTS_PER_SECOND * seconds`` requests, which lasts about
    #: ``--seconds`` nominal seconds (crash and recovery included).
    REQUESTS_PER_SECOND = 0
    #: Requests per host-throughput segment in the run record.
    SEGMENT_REQUESTS = 0

    def __init__(self) -> None:
        self.gen_s = 0.0
        #: Host seconds the timed span must not count (crash + recovery).
        self.excluded_s = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.controllers: List = []
        #: ``(finish_cycle - start_cycle)`` of every top-level ORAM access.
        self.access_latencies: List[int] = []
        #: Modeled latency of every completed client request, core cycles.
        self.request_latencies: List[int] = []
        #: One entry per recovery sample: the ``(start, end)`` host stamps
        #: (``time.perf_counter``) of each of its ``crash()`` + ``recover()``
        #: cycles.
        self.recoveries: List[List[Tuple[float, float]]] = []
        #: Client requests completed so far (warm-up included).
        self.completed = 0
        #: The installed :class:`tracer.Tracer` while a traced span runs.
        self.tracer = None
        #: The run's :class:`calibrate.SpeedProbe` in untraced runs; work
        #: loops outside the span call :meth:`probe` between recoveries.
        self.speed_probe = None

    # -- hooks each workload provides -------------------------------------------

    def preload(self) -> None:
        """Set-up work after the build, before the warm-up (default: none)."""

    def warmup(self) -> None:
        raise NotImplementedError

    def step(self):
        """Advance by one unit of work; returns completed requests (None = out of inputs)."""
        raise NotImplementedError

    def extra_snapshot(self) -> Dict:
        return {}

    def modeled(self, base: Dict, end: Dict) -> Dict[str, float]:
        """The workload-specific modeled end-to-end metrics."""
        raise NotImplementedError

    def check(self) -> None:
        """Post-span correctness checks and recovery trials (outside timing)."""
        raise NotImplementedError

    def layer_extra(self, base: Dict, end: Dict, tracer) -> Dict[str, float]:
        return {}

    # -- shared machinery ---------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def probe(self) -> None:
        """Take a speed probe, if the run has one."""
        if self.speed_probe is not None:
            self.speed_probe.probe()

    def power_cycle(self, controller, cycles: int = 1) -> bool:
        """One recovery sample: ``cycles`` back-to-back ``crash()`` + ``recover()``.

        Returns False as soon as a ``recover()`` fails.  A sample of
        several cycles is reported as their median, which keeps a single
        host hiccup of a few milliseconds out of the recovery percentiles.
        """
        perf = time.perf_counter
        sample = []
        self.recoveries.append(sample)
        for _ in range(cycles):
            start = perf()
            controller.crash()
            recovered = controller.recover()
            sample.append((start, perf()))
            if not recovered:
                return False
        return True

    def policy_classes(self) -> List[type]:
        return [type(c.controller.policy) for c in self.controllers]

    def begin_span(self) -> None:
        """Barrier: drain every window so the span starts on a quiet machine."""
        for controller in self.controllers:
            controller.drain()

    def accesses(self) -> int:
        return sum(c.stats.get("accesses") for c in self.controllers)

    def snapshot(self) -> Dict:
        snap = {
            "accesses": self.accesses(),
            "controllers": [controller_snapshot(c) for c in self.controllers],
            "access_latencies": len(self.access_latencies),
            "request_latencies": len(self.request_latencies),
            "recoveries": len(self.recoveries),
            "completed": self.completed,
        }
        snap.update(self.extra_snapshot())
        return snap

    def span_latencies(self, base: Dict, end: Dict):
        """Access and request latencies recorded inside a span."""
        return (
            self.access_latencies[base["access_latencies"]:end["access_latencies"]],
            self.request_latencies[base["request_latencies"]:end["request_latencies"]],
        )

    def e2e_modeled(self, base: Dict, end: Dict) -> Dict[str, float]:
        """Modeled metrics every workload reports the same way."""
        accesses = end["accesses"] - base["accesses"]
        cycles = sum(
            p["now"] - b["now"] for b, p in zip(base["controllers"], end["controllers"])
        )
        writes = sum(
            p["traffic"].get("writes.total", 0) - b["traffic"].get("writes.total", 0)
            for b, p in zip(base["controllers"], end["controllers"])
        )
        access_lat, request_lat = self.span_latencies(base, end)
        metrics = {
            "modeled_cycles_per_access": cycles / accesses,
            "modeled_access_p50_cycles": percentile(access_lat, 0.50),
            "modeled_access_p99_cycles": percentile(access_lat, 0.99),
            "nvm_writes_per_access": writes / accesses,
            "modeled_req_p50_us": percentile(request_lat, 0.50) / CORE_HZ * 1e6,
            "modeled_req_p99_us": percentile(request_lat, 0.99) / CORE_HZ * 1e6,
        }
        metrics.update(self.modeled(base, end))
        return metrics

    def layers(self, base: Dict, end: Dict, tracer) -> Dict[str, float]:
        """Per-layer metrics of a traced span (names from BENCHMARK.json)."""
        accesses = end["accesses"] - base["accesses"]
        pairs = list(zip(base["controllers"], end["controllers"]))

        def stat_delta(name: str) -> float:
            return sum(p["stats"].get(name, 0) - b["stats"].get(name, 0) for b, p in pairs)

        def traffic_delta(key: str) -> float:
            return sum(p["traffic"].get(key, 0) - b["traffic"].get(key, 0) for b, p in pairs)

        def per_access(value: float) -> float:
            return value / accesses

        units = tracer.units
        calls = tracer.calls
        self_s = tracer.self_s
        memo_units = units["oram.memo_decrypt_units"]
        computed_decrypts = units["crypto.decrypt"]
        recoveries = end["recoveries"] - base["recoveries"]

        bus_busy = bus_total = bank_busy = bank_total = 0.0
        for controller, (b, p) in zip(self.controllers, pairs):
            memory = controller.memory
            device = memory.device
            mem_cycles = (p["now"] - b["now"]) / controller.clock.ratio
            reads = p["traffic"].get("reads.total", 0) - b["traffic"].get("reads.total", 0)
            writes = p["traffic"].get("writes.total", 0) - b["traffic"].get("writes.total", 0)
            gap = device.min_gap_cycles()
            bus_busy += (reads + writes) * Channel.BURST_CYCLES
            bus_total += mem_cycles * len(memory.channels)
            bank_busy += (
                reads * (device.service_cycles(Access.READ) + gap)
                + writes * (device.service_cycles(Access.WRITE) + gap)
            )
            bank_total += mem_cycles * sum(len(channel.banks) for channel in memory.channels)

        metrics = {
            "sched.access_self_s": self_s["sched.access"],
            "sched.overlapped_share": per_access(stat_delta("sched_overlapped")),
            "sched.hazard_same_address_per_access": per_access(stat_delta("sched_hazard_same_address")),
            "sched.hazard_path_overlap_per_access": per_access(stat_delta("sched_hazard_path_overlap")),
            "sched.hazard_segment_per_access": per_access(stat_delta("sched_hazard_segment")),
            "sched.lookahead_hit_share": per_access(stat_delta("sched_lookahead_hits")),
            "sched.drains": units["sched.drains"],
            "engine.access_self_s": self_s["engine.access"],
            "engine.stash_hit_share": per_access(stat_delta("stash_hits")),
            "engine.evicted_blocks_per_access": per_access(stat_delta("evicted_blocks")),
            "policy.evict_self_s": self_s["policy.evict"],
            "policy.posmap_entries_persisted_per_access": per_access(stat_delta("posmap_entries_persisted")),
            "policy.backups_per_access": per_access(stat_delta("backups_created")),
            "policy.recover_self_ms": (
                self_s["policy.recover"] * 1e3 / recoveries if recoveries else 0.0
            ),
            "oram.tree_self_s": self_s["oram.tree"],
            "oram.codec_encode_self_s": self_s["oram.codec_encode"],
            "oram.codec_decode_self_s": self_s["oram.codec_decode"],
            "oram.codec_memo_hit_share": (
                memo_units / (memo_units + computed_decrypts)
                if memo_units + computed_decrypts else 0.0
            ),
            "oram.posmap_reads_per_access": per_access(traffic_delta("reads.posmap")),
            "crypto.self_s": tracer.layer_self_s("crypto"),
            "crypto.encrypt_units_per_access": per_access(units["crypto.encrypt"]),
            "crypto.decrypt_units_per_access": per_access(computed_decrypts),
            "mem.issue_path_self_s": self_s["mem.issue_path"],
            "mem.issue_self_s": self_s["mem.issue"],
            "mem.lines_per_issue_path": (
                units["mem.issue_path"] / calls["mem.issue_path"] if calls["mem.issue_path"] else 0.0
            ),
            "mem.gapfill_per_access": per_access(units["mem.gapfill"]),
            "mem.bus_busy_share": bus_busy / bus_total if bus_total else 0.0,
            "mem.bank_busy_share": bank_busy / bank_total if bank_total else 0.0,
            "integrity.commit_self_s": self_s["integrity.commit"],
            "integrity.node_writes_per_access": per_access(stat_delta("integrity_node_writes")),
            "integrity.authenticate_self_ms": (
                self_s["integrity.authenticate"] * 1e3 / recoveries if recoveries else 0.0
            ),
            "integrity.reseal_self_ms": (
                self_s["integrity.reseal"] * 1e3 / recoveries if recoveries else 0.0
            ),
            "sim.step_self_s": self_s["sim.step"],
            "cache.reference_self_s": self_s["cache.reference"],
            "serve.execute_batch_self_s": self_s["serve.execute_batch"],
            "apps.kv_get_self_s": self_s["apps.kv_get"],
            "apps.kv_put_self_s": self_s["apps.kv_put"],
            "driver.self_s": self_s["driver"],
            "apps.oram_accesses_per_request": accesses / (end["completed"] - base["completed"]),
        }
        # Layers a workload does not exercise read 0 unless it overrides them.
        for name in ZERO_UNLESS_EXERCISED:
            metrics[name] = 0.0
        for kind in TRAFFIC_KINDS:
            key = kind.lower()
            metrics[f"mem.reads.{kind}_per_access"] = per_access(traffic_delta(f"reads.{key}"))
            metrics[f"mem.writes.{kind}_per_access"] = per_access(traffic_delta(f"writes.{key}"))
        metrics.update(self.layer_extra(base, end, tracer))
        return metrics
