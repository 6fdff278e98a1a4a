"""``crash-ps-int``: random power cuts on PS-ORAM with integrity, checked.

``ps`` with the persistent integrity domain, tree height 10, behind a
depth-4 window on 2 channels.  Uniform addresses over the whole logical
space, half writes, all through ``crashsim.ConsistencyChecker``.  Every
:data:`CRASH_EVERY` operations a ``CrashInjector.arm_random()`` crash is
armed at a seeded engine, policy or integrity point; when it fires the
driver runs ``crash()`` and ``recover()`` (host time excluded from
throughput, reported as recovery latency) and then ``settle()``.  A final
``verify()`` runs after the span.

Lazy Merkle propagation (about 160 integrity line writes per access) and
the recovery path do their work here; neither runs in ``fig-mcf-ps``.
The recursive ``rcr-ps`` is not used: repeated crash/recover cycles lose
acknowledged writes on it (a program defect recorded in CHANGES.md), and a
benchmark workload must pass at the commit it measures.
"""

from __future__ import annotations

import time
from typing import Dict

from harness import CORE_HZ
from repro.config import small_config
from repro.crashsim.checker import ConsistencyChecker
from repro.crashsim.injector import CrashInjector
from repro.engine.registry import build_scheduled
from repro.errors import SimulatedCrash
from repro.util.rng import DeterministicRNG
from wlbase import Workload

HEIGHT = 10
CHANNELS = 2
WINDOW = 4
#: Operations generated per seed: the warm-up plus a span of up to 60 s.
TOTAL_OPS = 16_000
#: Past the decode-memo fill (about 1.5k accesses at 44 encodes each).
WARMUP_OPS = 1_600
CRASH_EVERY = 40
ORIGINS = ("engine", "policy", "integrity")


class RecordingController:
    """Proxy handed to the checker: records each access's modeled latency."""

    def __init__(self, controller, latencies):
        self._controller = controller
        self._latencies = latencies

    def read(self, address):
        result = self._controller.read(address)
        self._latencies.append(result.finish_cycle - result.start_cycle)
        return result

    def write(self, address, data):
        result = self._controller.write(address, data)
        self._latencies.append(result.finish_cycle - result.start_cycle)
        return result

    def __getattr__(self, name):
        return getattr(self._controller, name)


class CrashPsInt(Workload):
    name = "crash-ps-int"
    REQUESTS_PER_SECOND = 225
    SEGMENT_REQUESTS = 20

    def __init__(self, seed: int):
        super().__init__()
        start = time.perf_counter()
        rng = DeterministicRNG(seed).substream("ops")
        config = small_config(
            height=HEIGHT, channels=CHANNELS, sched_window=WINDOW, integrity=True, seed=seed
        )
        span = config.oram.num_logical_blocks
        self.ops = [
            (rng.randrange(span), rng.random() < 0.5, index.to_bytes(8, "little"))
            for index in range(TOTAL_OPS)
        ]
        self.gen_s = time.perf_counter() - start
        self.controller = build_scheduled("ps", config)
        self.controllers = [self.controller]
        self.checker = ConsistencyChecker(
            RecordingController(self.controller, self.access_latencies)
        )
        self.injector = CrashInjector(
            self.controller, DeterministicRNG(seed).substream("inject")
        )
        self.origin = {
            info.label: info.origin for info in self.controller.crash_point_metadata()
        }
        self.crashes = {origin: 0 for origin in ORIGINS}
        self.interrupted = 0
        self.recovered_ok = 0
        self.cursor = 0

    def warmup(self) -> None:
        for index in range(1, WARMUP_OPS + 1):
            self.step()
            if index % self.SEGMENT_REQUESTS == 0:
                self.probe()

    def step(self):
        index = self.cursor
        if index >= len(self.ops):
            return None
        self.cursor = index + 1
        if self.tracer is not None:
            self.tracer.request = index
        if index % CRASH_EVERY == 0:
            self.injector.arm_random()
        address, is_write, payload = self.ops[index]
        self.attempted += 1
        try:
            if is_write:
                self.checker.write(address, payload)
            else:
                self.checker.read(address)
        except SimulatedCrash:
            if not is_write:
                self.checker.note_interrupted_read(address)
            self.interrupted += 1
            self._power_cycle()
            return 0
        self.request_latencies.append(self.access_latencies[-1])
        self.completed += 1
        return 1

    def _power_cycle(self) -> None:
        point = self.injector.fired_point
        self.injector.disarm()
        self.crashes[self.origin[point]] += 1
        recovered = self.power_cycle(self.controller)
        (start, end), = self.recoveries[-1]
        self.excluded_s += end - start
        self.attempted += 1
        if not recovered:
            self.fail(f"crash at {point}: recover() returned False")
            return
        violations = self.controller.integrity.recovery_violations
        if violations:
            for violation in violations:
                self.fail(f"crash at {point}: {violation}")
            return
        self.recovered_ok += 1
        self.checker.settle()

    def extra_snapshot(self) -> Dict:
        return {
            "ops": self.cursor,
            "crashes": dict(self.crashes),
            "interrupted": self.interrupted,
            "recovered_ok": self.recovered_ok,
            "failures": len(self.failures),
        }

    def modeled(self, base: Dict, end: Dict) -> Dict[str, float]:
        # No core model: the client issues one request per instruction, so
        # CPI is modeled core cycles per completed request.
        cycles = end["controllers"][0]["now"] - base["controllers"][0]["now"]
        requests = end["completed"] - base["completed"]
        return {
            "modeled_cpi": cycles / requests,
            "modeled_req_per_s": requests / (cycles / CORE_HZ),
        }

    def layer_extra(self, base, end, tracer) -> Dict[str, float]:
        recoveries = end["recoveries"] - base["recoveries"]
        metrics = {
            f"crashsim.crashes_by_origin.{origin}": end["crashes"][origin] - base["crashes"][origin]
            for origin in ORIGINS
        }
        metrics["crashsim.interrupted_ops"] = end["interrupted"] - base["interrupted"]
        metrics["crashsim.recover_ok_share"] = (
            (end["recovered_ok"] - base["recovered_ok"]) / recoveries if recoveries else 0.0
        )
        metrics["crashsim.violations"] = end["failures"] - base["failures"]
        return metrics

    def check(self) -> None:
        self.injector.disarm()
        report = self.checker.verify()
        self.attempted += report.checked
        for violation in report.violations:
            self.fail(f"final verify: {violation}")

