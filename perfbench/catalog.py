"""Every metric the benchmark reports: name, unit, clock, meaning.

Two clocks: ``host`` is the simulator's own wall time on this machine (in
the end-to-end metrics converted to nominal seconds by the speed probe of
``calibrate.py``; raw wall values go to the run record); ``modeled`` is
simulated core/PCM time (cycles, or seconds at the modeled 3.2 GHz core
clock).  ``none`` marks pure counts and shares.  Names and
units must match ``BENCHMARK.json``; ``run.py`` refuses to run otherwise.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (unit, clock, meaning).  Reported on every workload with --trace 0.
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "host_access_per_s": ("1/s", "host",
                          "top-level ORAM accesses per nominal host second (recovery excluded)"),
    "host_req_per_s": ("1/s", "host",
                       "completed requests per nominal host second: trace references (fig), "
                       "client ops (crash), KV requests (kv)"),
    "modeled_cycles_per_access": ("cycles", "modeled",
                                  "controller-clock delta per top-level ORAM access"),
    "modeled_access_p50_cycles": ("cycles", "modeled",
                                  "median finish_cycle - start_cycle of an ORAM access"),
    "modeled_access_p99_cycles": ("cycles", "modeled",
                                  "99th percentile finish_cycle - start_cycle of an ORAM access"),
    "modeled_cpi": ("cycles/instr", "modeled",
                    "core cycles per instruction (fig, Fig. 5 numerator); with no core "
                    "model, a client's cycles per request"),
    "nvm_writes_per_access": ("lines/access", "modeled",
                              "NVM line writes of every kind per ORAM access (Fig. 6)"),
    "modeled_req_per_s": ("1/s", "modeled", "completed requests per modeled second"),
    "modeled_req_p50_us": ("us", "modeled", "median request latency, issue/arrival to finish"),
    "modeled_req_p99_us": ("us", "modeled", "99th percentile request latency"),
    "recovery_p50_ms": ("ms", "host", "median crash() + recover() nominal host time"),
    "recovery_p90_ms": ("ms", "host", "90th percentile crash() + recover() nominal host time"),
    "setup_s": ("s", "host",
                "median(input generation + build) + preload + warm-up, nominal"),
    "peak_rss_mb": ("MiB", "host", "peak resident set size of the run's process"),
}

#: name -> (unit, clock, meaning).  Reported on every workload with --trace 1;
#: a layer a workload does not exercise reads 0.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "workloads.gen_s": ("s", "host", "input generation time"),
    "sim.step_self_s": ("s", "host", "self time of SimulatedSystem.step"),
    "cache.reference_self_s": ("s", "host", "self time of CacheHierarchy.reference"),
    "cache.llc_miss_share": ("share", "none", "LLC misses per trace reference"),
    "sched.access_self_s": ("s", "host", "self time of WindowScheduler.access"),
    "sched.overlapped_share": ("share", "none", "accesses launched under an older write-back"),
    "sched.hazard_same_address_per_access": ("1/access", "none", "same-address hazards"),
    "sched.hazard_path_overlap_per_access": ("1/access", "none", "whole-path serializations"),
    "sched.hazard_segment_per_access": ("1/access", "none", "bucket-segment floors applied"),
    "sched.lookahead_hit_share": ("share", "none", "accesses admitted by posmap lookahead"),
    "sched.drains": ("count", "none", "WindowScheduler.drain calls"),
    "engine.access_self_s": ("s", "host", "self time of AccessEngine.access (all trees)"),
    "engine.stash_hit_share": ("share", "none", "top-level accesses served by the stash"),
    "engine.evicted_blocks_per_access": ("1/access", "none", "blocks evicted to the tree"),
    "policy.evict_self_s": ("s", "host", "self time of the persistence policy's evict"),
    "policy.posmap_entries_persisted_per_access": ("1/access", "none",
                                                   "PosMap entries persisted"),
    "policy.backups_per_access": ("1/access", "none", "backup blocks created"),
    "policy.recover_self_ms": ("ms", "host", "policy recover self time per recovery"),
    "oram.tree_self_s": ("s", "host", "self time of ORAMTree path reads/writes"),
    "oram.codec_encode_self_s": ("s", "host", "self time of BlockCodec encodes"),
    "oram.codec_decode_self_s": ("s", "host", "self time of BlockCodec decodes"),
    "oram.codec_memo_hit_share": ("share", "none",
                                  "decrypt units answered by the decode memo / all decrypt units"),
    "oram.posmap_reads_per_access": ("1/access", "none", "POSMAP line reads"),
    "crypto.self_s": ("s", "host", "self time of CtrCipher (keystreams computed)"),
    "crypto.encrypt_units_per_access": ("1/access", "none", "units encrypted"),
    "crypto.decrypt_units_per_access": ("1/access", "none",
                                        "units decrypted with a computed keystream"),
    "mem.issue_path_self_s": ("s", "host", "self time of NVMMainMemory.issue_path"),
    "mem.issue_self_s": ("s", "host", "self time of NVMMainMemory.issue"),
    "mem.lines_per_issue_path": ("lines", "none", "lines per issue_path burst"),
    "mem.gapfill_per_access": ("1/access", "none",
                               "reserve_interval (gap-fill) calls from the memory controller"),
    "mem.reads.DATA_PATH_per_access": ("lines/access", "modeled", "DATA_PATH line reads"),
    "mem.reads.POSMAP_per_access": ("lines/access", "modeled", "POSMAP line reads"),
    "mem.reads.PERSIST_per_access": ("lines/access", "modeled", "PERSIST line reads"),
    "mem.reads.INTEGRITY_per_access": ("lines/access", "modeled", "INTEGRITY line reads"),
    "mem.writes.DATA_PATH_per_access": ("lines/access", "modeled", "DATA_PATH line writes"),
    "mem.writes.POSMAP_per_access": ("lines/access", "modeled", "POSMAP line writes"),
    "mem.writes.PERSIST_per_access": ("lines/access", "modeled", "PERSIST line writes"),
    "mem.writes.INTEGRITY_per_access": ("lines/access", "modeled", "INTEGRITY line writes"),
    "mem.bus_busy_share": ("share", "modeled", "data-bus burst cycles / channel cycles"),
    "mem.bank_busy_share": ("share", "modeled", "bank occupancy cycles / bank cycles"),
    "integrity.commit_self_s": ("s", "host", "self time of IntegrityDomain.on_persist_commit"),
    "integrity.node_writes_per_access": ("1/access", "modeled", "Merkle node line writes"),
    "integrity.authenticate_self_ms": ("ms", "host", "begin_recovery self time per recovery"),
    "integrity.reseal_self_ms": ("ms", "host", "finish_recovery self time per recovery"),
    "crashsim.crashes_by_origin.engine": ("count", "none", "crashes fired at engine points"),
    "crashsim.crashes_by_origin.policy": ("count", "none", "crashes fired at policy points"),
    "crashsim.crashes_by_origin.integrity": ("count", "none",
                                             "crashes fired at integrity points"),
    "crashsim.interrupted_ops": ("count", "none", "client ops cut short by a crash"),
    "crashsim.recover_ok_share": ("share", "none", "recoveries that verified clean"),
    "crashsim.violations": ("count", "none", "consistency or recovery violations"),
    "serve.execute_batch_self_s": ("s", "host", "self time of ShardWorker.execute_batch"),
    "serve.batch_fill_mean": ("requests", "none", "requests per executed batch"),
    "serve.coalesced_share": ("share", "none", "requests coalesced away by the planner"),
    "serve.shard_busy_share_max": ("share", "modeled", "busiest shard's busy cycles / span"),
    "apps.kv_get_self_s": ("s", "host", "self time of ObliviousKVStore.get"),
    "apps.kv_put_self_s": ("s", "host", "self time of ObliviousKVStore.put"),
    "apps.oram_accesses_per_request": ("1/request", "none", "top-level ORAM accesses per request"),
    "driver.self_s": ("s", "host", "benchmark driver time outside every layer span"),
    "trace.overhead_share": ("share", "host",
                             "traced span host time / untraced span host time - 1"),
    "failed_op_share": ("share", "none", "failed operations / attempted operations"),
}
