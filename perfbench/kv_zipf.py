"""``kv-zipf``: a closed loop of clients on the sharded oblivious KV service.

``ShardedKVService`` in inline mode: 4 shards of ``ps``, each tree height
10 behind a depth-4 window, ``batch_max`` 8, directory buckets sized as
``repro.serve.loadgen.run_load`` sizes them.  8 clients draw keys from a
Zipf(0.99) popularity over 512 keys; half the requests are puts of 16-180
byte values (1-3 chunks), half are gets.  A client sends its next request
only when its previous one completes (closed loop, the discrete-event
model of ``run_load``).  This is the only workload with reads and writes
to the same hot keys: skew drives batch coalescing, multi-chunk
allocation and the scheduler's same-address hazard.

Every get is checked against the shadow value as of its issue, every put
must be acknowledged, and after the span all 512 keys are read back in
batches, each batch preceded by a ``crash()`` + ``recover()`` of its
shard's controller (one recovery sample of three cycles each) and
followed by a speed probe.  The store's allocator is not rebuilt after
those power cycles (a full ``ShardWorker.recover`` rescans all 1024
directory buckets, seconds per shard): gets never consult it, and no put
follows.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from harness import CORE_HZ
from repro.engine.sched import WindowScheduler
from repro.serve.batcher import OP_GET, OP_PUT, Request
from repro.serve.frontend import ShardedKVService
from repro.util.rng import DeterministicRNG
from wlbase import Workload

SHARDS = 4
HEIGHT = 10
WINDOW = 4
BATCH_MAX = 8
CLIENTS = 8
KEYS = 512
ZIPF_ALPHA = 0.99
PUT_SHARE = 0.5
VALUE_BYTES = (16, 180)
#: Requests generated per client: the warm-up plus a span of up to 60 s.
REQUESTS_PER_CLIENT = 4_000
#: Back-to-back crash + recover cycles before each read-back batch (one
#: recovery sample, their median).
CYCLES_PER_RECOVERY = 3
#: Closed-loop requests completed before timing (the preload and the
#: directory scans at build have already filled most of each decode memo).
WARMUP_REQUESTS = 400


@contextmanager
def _recording_latencies(latencies: List[int]):
    """Class-level tap on ``WindowScheduler.access`` for one batch's accesses."""
    original = WindowScheduler.access

    def access(scheduler, *args, **kwargs):
        result = original(scheduler, *args, **kwargs)
        latencies.append(result.finish_cycle - result.start_cycle)
        return result

    WindowScheduler.access = access
    try:
        yield
    finally:
        WindowScheduler.access = original


class KvZipf(Workload):
    name = "kv-zipf"
    REQUESTS_PER_SECOND = 155
    SEGMENT_REQUESTS = 12

    def __init__(self, seed: int):
        super().__init__()
        start = time.perf_counter()
        rng = DeterministicRNG(seed)
        # Key ``item-i`` has popularity rank i on every seed, so the hot
        # keys land on the same shards and seeds vary only the request
        # sequence and the values.
        keys = [f"item-{index}" for index in range(KEYS)]

        def value(stream) -> bytes:
            return stream.randbytes(stream.randint(*VALUE_BYTES))

        preload_rng = rng.substream("preload")
        self.preload_values = {key: value(preload_rng) for key in sorted(keys)}
        self.client_ops: List[List[Tuple[str, str, bytes]]] = []
        for client in range(CLIENTS):
            stream = rng.substream(f"client-{client}")
            ops = []
            for _ in range(REQUESTS_PER_CLIENT):
                key = keys[stream.zipf_index(KEYS, ZIPF_ALPHA)]
                if stream.random() < PUT_SHARE:
                    ops.append((OP_PUT, key, value(stream)))
                else:
                    ops.append((OP_GET, key, b""))
            self.client_ops.append(ops)
        self.gen_s = time.perf_counter() - start
        self.service = ShardedKVService(
            shards=SHARDS, variant="ps", height=HEIGHT,
            directory_buckets=max(32, 2 * KEYS), batch_max=BATCH_MAX,
            seed=seed, mode="inline", window=WINDOW,
        ).start()
        self.controllers = [worker.controller for worker in self.service.workers]
        #: Latest value per key as of issue (what a get must return)...
        self.shadow: Dict[str, bytes] = {}
        #: ...and as of acknowledgement (what must survive a crash).
        self.acked: Dict[str, bytes] = {}
        # Discrete-event closed loop (times are shard-clock core cycles).
        self.client_cursor = [0] * CLIENTS
        self.shard_free = [0] * SHARDS
        self.queues: List[list] = [[] for _ in range(SHARDS)]
        self.events: List[tuple] = []
        self.sequence = 0
        self.makespan = 0
        self.batch_no = 0

    # -- set-up -----------------------------------------------------------------

    def preload(self) -> None:
        """Put every key once (through the shard workers), untimed."""
        by_shard: List[List[Request]] = [[] for _ in range(SHARDS)]
        for key, payload in self.preload_values.items():
            request = Request(OP_PUT, key, payload)
            request.shard = self.service.shard_for(key)
            by_shard[request.shard].append(request)
        for shard, requests in enumerate(by_shard):
            for start in range(0, len(requests), BATCH_MAX):
                batch = requests[start:start + BATCH_MAX]
                self.service.workers[shard].execute_batch(batch)
                self.probe()
                for request in batch:
                    self.attempted += 1
                    if request.error is not None:
                        self.fail(f"preload put {request.key}: {request.error!r}")
                    else:
                        self.shadow[request.key] = self.acked[request.key] = request.value
        for client in range(CLIENTS):
            self._push(0, "client", client)

    def warmup(self) -> None:
        done = probed = 0
        while done < WARMUP_REQUESTS:
            done += self.step()
            if done - probed >= self.SEGMENT_REQUESTS:
                self.probe()
                probed = done

    # -- closed loop --------------------------------------------------------------

    def _push(self, at: int, kind: str, ident: int) -> None:
        heapq.heappush(self.events, (at, self.sequence, kind, ident))
        self.sequence += 1

    def _issue(self, client: int, now: int) -> int:
        """Queue ``client``'s next request; returns its shard (-1 = none left)."""
        cursor = self.client_cursor[client]
        ops = self.client_ops[client]
        if cursor >= len(ops):
            return -1
        self.client_cursor[client] = cursor + 1
        op, key, payload = ops[cursor]
        if op == OP_PUT:
            request = Request(OP_PUT, key, payload)
            expected = None
            self.shadow[key] = payload
        else:
            request = Request(OP_GET, key)
            expected = self.shadow[key]
        request.shard = self.service.shard_for(key)
        self.queues[request.shard].append((now, client, request, expected))
        return request.shard

    def _serve(self, shard: int, now: int) -> int:
        """Run one batch on ``shard`` if it is free and has work queued."""
        queue = self.queues[shard]
        if not queue or self.shard_free[shard] > now:
            return 0
        window = queue[:BATCH_MAX]
        del queue[:len(window)]
        worker = self.service.workers[shard]
        if self.tracer is not None:
            self.tracer.request = self.batch_no
        self.batch_no += 1
        before = worker.controller.now
        with _recording_latencies(self.access_latencies):
            worker.execute_batch([request for _, _, request, _ in window])
        done_at = now + worker.controller.now - before
        self.shard_free[shard] = done_at
        if done_at > self.makespan:
            self.makespan = done_at
        for arrival, client, request, expected in window:
            self.attempted += 1
            if request.error is not None:
                self.fail(f"{request.op} {request.key}: {request.error!r}")
            elif request.op == OP_GET:
                if request.result != expected:
                    self.fail(
                        f"get {request.key}: returned {len(request.result or b'')} bytes "
                        "that differ from the value as of its issue"
                    )
            else:
                self.acked[request.key] = request.value
            self.request_latencies.append(done_at - arrival)
            self._push(done_at, "client", client)
        self._push(done_at, "shard", shard)
        self.completed += len(window)
        return len(window)

    def step(self):
        """Process events until one batch completes; returns its size."""
        while self.events:
            now, _, kind, ident = heapq.heappop(self.events)
            if kind == "client":
                shard = self._issue(ident, now)
                if shard < 0:
                    continue
            else:
                shard = ident
            done = self._serve(shard, now)
            if done:
                return done
        return None

    # -- metrics ------------------------------------------------------------------

    def extra_snapshot(self) -> Dict:
        return {
            "makespan": self.makespan,
            "workers": [dict(sorted(worker.stats.items())) for worker in self.service.workers],
        }

    def modeled(self, base: Dict, end: Dict) -> Dict[str, float]:
        requests = end["completed"] - base["completed"]
        cycles = end["makespan"] - base["makespan"]
        return {
            # No core model: each client issues one request per
            # instruction, so CPI is a client's cycles per request.
            "modeled_cpi": CLIENTS * cycles / requests,
            "modeled_req_per_s": requests / (cycles / CORE_HZ),
        }

    def layer_extra(self, base, end, tracer) -> Dict[str, float]:
        def delta(field: str) -> List[int]:
            return [
                p[field] - b[field] for b, p in zip(base["workers"], end["workers"])
            ]

        requests = sum(delta("requests"))
        span_cycles = end["makespan"] - base["makespan"]
        return {
            "serve.batch_fill_mean": requests / sum(delta("batches")),
            "serve.coalesced_share": (
                sum(delta("coalesced_reads")) + sum(delta("coalesced_writes"))
            ) / requests,
            "serve.shard_busy_share_max": max(delta("busy_cycles")) / span_cycles,
        }

    # -- checks -------------------------------------------------------------------

    def check(self) -> None:
        by_shard: List[List[Request]] = [[] for _ in range(SHARDS)]
        for key in sorted(self.acked):
            by_shard[self.service.shard_for(key)].append(Request(OP_GET, key))
        for shard, requests in enumerate(by_shard):
            worker = self.service.workers[shard]
            for start in range(0, len(requests), BATCH_MAX):
                recovered = self.power_cycle(worker.controller, CYCLES_PER_RECOVERY)
                self.attempted += 1
                if not recovered:
                    self.fail(f"shard {shard}: recover() returned False")
                    return
                batch = requests[start:start + BATCH_MAX]
                worker.execute_batch(batch)
                for request in batch:
                    self.attempted += 1
                    if request.error is not None or request.result != self.acked[request.key]:
                        self.fail(f"read-back after recovery: {request.key} lost or changed")
                self.probe()
