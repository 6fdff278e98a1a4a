"""``fig-mcf-ps``: the paper's Fig. 5a pipeline on a calibrated 429.mcf trace.

trace -> in-order core -> L1/L2 -> WindowScheduler (depth 4) -> ``ps`` ->
2-channel PCM, tree height 12, integrity off.  Nearly every reference
misses the LLC, and a height-12 tree outgrows the codec's decode memo, so
``mem``, the ``oram`` codec and ``crypto`` do most of the work; integrity,
recursion, recovery (inside the timed span) and ``serve`` do none.

The controller is handed to :class:`~repro.sim.system.SimulatedSystem`
behind :class:`CheckedController`, a recording proxy: every write-back
carries a per-write counter as its payload (the system itself posts
empty payloads), and every access's returned data — the value read, or
the value a write replaced — is checked against a shadow copy.
"""

from __future__ import annotations

import time
from typing import Dict

from harness import CORE_HZ
from repro.config import small_config
from repro.engine.registry import build_scheduled
from repro.sim.system import SimulatedSystem
from repro.util.rng import DeterministicRNG
from repro.workloads.spec import spec_workload
from wlbase import Workload

HEIGHT = 12
CHANNELS = 2
WINDOW = 4
#: Trace length: the warm-up plus a span of up to 60 s, fixed so the MPKI
#: calibration (which sizes instruction gaps over the whole trace) never
#: depends on the run length.
TRACE_REFERENCES = 40_000
#: Past the decode-memo fill (about 1.3k accesses at 52 encodes each).
WARMUP_REFERENCES = 2_000
#: Quiescent recovery trials after the timed span...
RECOVERY_TRIALS = 80
#: ...each this many back-to-back crash + recover cycles (one sample, their median)...
CYCLES_PER_TRIAL = 3
#: ...followed by this many shadow read-backs...
READBACK_PER_TRIAL = 5
#: ...and this many further trace references (checked like the span's).
REFERENCES_PER_TRIAL = 5


class CheckedController:
    """Recording proxy between the simulated system and the controller."""

    def __init__(self, controller, workload: "FigMcfPs"):
        self._controller = controller
        self._workload = workload
        self._block_bytes = controller.oram_config.block_bytes
        self.shadow: Dict[int, bytes] = {}
        self.writes = 0

    def access(self, address, is_write=False, data=None, start_cycle=None):
        expected = self.shadow.get(address, b"").ljust(self._block_bytes, b"\0")
        if is_write:
            self.writes += 1
            payload = self.writes.to_bytes(8, "little")
            result = self._controller.access(address, True, data=payload, start_cycle=start_cycle)
            self.shadow[address] = payload
        else:
            result = self._controller.access(address, False, start_cycle=start_cycle)
        workload = self._workload
        workload.attempted += 1
        if result.data != expected:
            workload.fail(
                f"block {address}: {'write replaced' if is_write else 'read returned'} "
                f"{result.data[:8].hex()}, expected {expected[:8].hex()}"
            )
        workload.access_latencies.append(result.finish_cycle - result.start_cycle)
        return result

    def __getattr__(self, name):
        return getattr(self._controller, name)


class FigMcfPs(Workload):
    name = "fig-mcf-ps"
    REQUESTS_PER_SECOND = 290
    SEGMENT_REQUESTS = 20

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        start = time.perf_counter()
        self.trace = spec_workload("429.mcf", references=TRACE_REFERENCES, seed=seed).ops
        self.gen_s = time.perf_counter() - start
        config = small_config(height=HEIGHT, channels=CHANNELS, sched_window=WINDOW, seed=seed)
        self.controller = build_scheduled("ps", config)
        self.proxy = CheckedController(self.controller, self)
        self.system = SimulatedSystem(config, self.proxy)
        self.controllers = [self.controller]
        self.base_cpi = config.core.base_cpi
        self.cursor = 0

    def warmup(self) -> None:
        for index in range(1, WARMUP_REFERENCES + 1):
            self.step()
            if index % self.SEGMENT_REQUESTS == 0:
                self.probe()

    def step(self):
        index = self.cursor
        if index >= len(self.trace):
            return None
        op = self.trace[index]
        self.cursor = index + 1
        if self.tracer is not None:
            self.tracer.request = index
        core = self.system.core
        issue = core.cycle + int(op.gap * self.base_cpi)
        self.system.step(op)
        self.request_latencies.append(core.cycle - issue)
        self.completed += 1
        return 1

    def extra_snapshot(self) -> Dict:
        caches = self.system.caches
        return {
            "references": self.cursor,
            "core_cycle": self.system.core.cycle,
            "instructions": self.system.core.instructions,
            "l1_misses": caches.l1.misses,
            "l2_misses": caches.l2.misses,
            "system": dict(sorted(self.system.stats.snapshot().items())),
            "payload_writes": self.proxy.writes,
        }

    def modeled(self, base: Dict, end: Dict) -> Dict[str, float]:
        cycles = end["core_cycle"] - base["core_cycle"]
        references = end["references"] - base["references"]
        return {
            "modeled_cpi": cycles / (end["instructions"] - base["instructions"]),
            "modeled_req_per_s": references / (cycles / CORE_HZ),
        }

    def layer_extra(self, base, end, tracer) -> Dict[str, float]:
        references = end["references"] - base["references"]
        return {"cache.llc_miss_share": (end["l2_misses"] - base["l2_misses"]) / references}

    def check(self) -> None:
        """Quiescent recovery trials, each followed by checked work.

        A trial is :data:`CYCLES_PER_TRIAL` back-to-back crash + recover
        cycles (one recovery sample).  After it a few shadow addresses are
        read back, the trace continues for a few references and a speed
        probe is taken.
        """
        rng = DeterministicRNG(self.seed).substream("readback")
        for trial in range(RECOVERY_TRIALS):
            recovered = self.power_cycle(self.controller, CYCLES_PER_TRIAL)
            self.attempted += 1
            if not recovered:
                self.fail(f"recovery trial {trial}: recover() returned False")
                return
            addresses = sorted(self.proxy.shadow)
            for address in rng.sample(addresses, min(READBACK_PER_TRIAL, len(addresses))):
                self.proxy.access(address, False)
            for _ in range(REFERENCES_PER_TRIAL):
                self.step()
            self.probe()
