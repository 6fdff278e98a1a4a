"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig-mcf-ps --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, host times in nominal
seconds (see calibrate.py) followed by their raw wall-clock values;
``--trace 1`` re-runs the timed span with class-level span tracing and
prints every per-layer metric.  A table (name, value, unit, clock) is
printed first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.  Each run also
writes a record (machine fingerprint, set-up phases, per-segment host
throughput, speed-probe readings, every metric with unit and clock)
under ``.perfbench/`` in the working directory.
See perfbench/README.md for the protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
             "run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from calibrate import SpeedProbe  # noqa: E402
from catalog import END_TO_END, PER_LAYER  # noqa: E402
from crash_ps_int import CrashPsInt  # noqa: E402
from fig_mcf_ps import FigMcfPs  # noqa: E402
from harness import (  # noqa: E402
    SETUP_REPEATS, Setup, first_difference, fingerprint, peak_rss_mb, percentile, run_span,
)
from kv_zipf import KvZipf  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = {cls.name: cls for cls in (FigMcfPs, CrashPsInt, KvZipf)}

#: Output directory for run records and span dumps (inside the checkout).
RECORD_DIR = ".perfbench"

#: Largest |sum of self times - traced wall time| accepted, in seconds.
SELF_TIME_TOLERANCE_S = 1e-6


def check_benchmark_json(path: Path) -> None:
    """Refuse to run when BENCHMARK.json and the catalog disagree."""
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {entry["name"]: entry["unit"] for entry in spec[key]}
        expected = {name: unit for name, (unit, _, _) in catalog.items()}
        if declared != expected:
            sys.exit(f"perfbench: BENCHMARK.json {key} does not match perfbench/catalog.py")
    names = sorted(entry["name"] for entry in spec["workloads"])
    if names != sorted(WORKLOADS):
        sys.exit("perfbench: BENCHMARK.json workloads do not match perfbench/run.py")


def set_up(cls, seed: int, setup: Setup, repeats: int):
    workload = setup.build(lambda: cls(seed), repeats)
    workload.speed_probe = setup.probe
    setup.timed("preload_s", workload.preload)
    setup.timed("warmup_s", workload.warmup)
    return workload


def span_requests(cls, args) -> int:
    return cls.REQUESTS_PER_SECOND * args.seconds


def end_to_end(cls, args, record):
    """Untraced run: every end-to-end metric, host times in nominal seconds."""
    probe = SpeedProbe()
    setup = Setup(probe)
    workload = set_up(cls, args.seed, setup, repeats=SETUP_REPEATS)
    span = run_span(workload, span_requests(cls, args), probe=probe)
    first_recovery = span.base["recoveries"]
    workload.check()
    probe.probe()
    recoveries_ms, nominal_ms = [], []
    for sample in workload.recoveries[first_recovery:]:
        recoveries_ms.append(statistics.median((end - start) * 1e3 for start, end in sample))
        nominal_ms.append(statistics.median(
            probe.nominal_s((end - start) * 1e3, start, end) for start, end in sample
        ))
    metrics = {
        "host_access_per_s": span.accesses / span.nominal_s,
        "host_req_per_s": span.requests / span.nominal_s,
        "recovery_p50_ms": percentile(nominal_ms, 0.50),
        "recovery_p90_ms": percentile(nominal_ms, 0.90),
        "setup_s": setup.nominal_total_s,
    }
    metrics.update(workload.e2e_modeled(span.base, span.end))
    metrics["peak_rss_mb"] = peak_rss_mb()
    wall = {
        "host_access_per_s": span.accesses / span.measured_s,
        "host_req_per_s": span.requests / span.measured_s,
        "recovery_p50_ms": percentile(recoveries_ms, 0.50),
        "recovery_p90_ms": percentile(recoveries_ms, 0.90),
        "setup_s": setup.total_s,
    }
    record["setup"] = setup.record()
    record["span"] = span.record()
    record["recoveries_ms"] = recoveries_ms
    record["recoveries_nominal_ms"] = nominal_ms
    record["probe_kernel_s"] = probe.kernel_s
    record["wall"] = wall
    return workload, metrics, END_TO_END, wall


def per_layer(cls, args, record):
    """Traced run: the timed span twice (plain, then traced), compared."""
    plain = set_up(cls, args.seed, Setup(), repeats=1)
    plain_span = run_span(plain, span_requests(cls, args))
    plain_latencies = plain.span_latencies(plain_span.base, plain_span.end)
    attempted, failures = plain.attempted, list(plain.failures)
    del plain
    gc.collect()

    setup = Setup()
    workload = set_up(cls, args.seed, setup, repeats=1)
    tracer = Tracer().install(policy_classes=workload.policy_classes())
    workload.tracer = tracer
    try:
        span = run_span(workload, span_requests(cls, args), tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    for label, a, b in (
        ("start-of-span state", plain_span.base, span.base),
        ("modeled outputs", plain_span.end, span.end),
        ("access/request latencies", plain_latencies,
         workload.span_latencies(span.base, span.end)),
    ):
        difference = first_difference(a, b)
        if difference:
            workload.fail(f"traced run differs from untraced run in {label}: {difference}")
    gap = tracer.self_time_gap()
    if gap > SELF_TIME_TOLERANCE_S:
        workload.fail(f"layer self times miss the traced wall time by {gap:.3g} s")
    workload.check()
    workload.attempted += attempted
    workload.failures[:0] = failures

    metrics = workload.layers(span.base, span.end, tracer)
    metrics["workloads.gen_s"] = setup.gen_s[-1]
    metrics["trace.overhead_share"] = span.measured_s / plain_span.measured_s - 1.0
    metrics["failed_op_share"] = len(workload.failures) / workload.attempted
    record["setup"] = setup.record()
    record["span"] = span.record()
    record["untraced_span"] = plain_span.record()
    record["traced_wall_s"] = tracer.root_s
    record["self_time_gap_s"] = gap
    record["self_s"] = dict(sorted(tracer.self_s.items()))
    record["calls"] = dict(sorted(tracer.calls.items()))
    spans_dir = Path(RECORD_DIR) / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{args.workload}-seed{args.seed}-{time.time_ns()}.jsonl"
    tracer.write_jsonl(spans_path)
    record["spans_file"] = str(spans_path)
    return workload, metrics, PER_LAYER, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="span length: the span completes a fixed number of requests "
                             "per second given, about this many nominal seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    check_benchmark_json(ROOT / "BENCHMARK.json")

    cls = WORKLOADS[args.workload]
    record = {"args": vars(args), "fingerprint": fingerprint(ROOT)}
    run = per_layer if args.trace else end_to_end
    workload, metrics, catalog, wall = run(cls, args, record)
    if set(metrics) != set(catalog):
        raise RuntimeError(f"metric set drifted from the catalog: {set(metrics) ^ set(catalog)}")

    record["metrics"] = {
        name: {"value": metrics[name], "unit": unit, "clock": clock}
        for name, (unit, clock, _) in sorted(catalog.items())
    }
    record["attempted"] = workload.attempted
    record["failures"] = workload.failures[:100]
    records = Path(RECORD_DIR) / "runs"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# record: {record_path}")
    print(f"# {'metric':44s} {'value':>16s}  {'unit':12s} clock")
    for name, (unit, clock, _) in sorted(catalog.items()):
        print(f"  {name:44s} {metrics[name]:16.6g}  {unit:12s} {clock}")
    for name, value in sorted(wall.items()):
        print(f"  {name + ' (raw)':44s} {value:16.6g}  {catalog[name][0]:12s} wall")
    for failure in workload.failures[:20]:
        print(f"FAIL: {failure}", file=sys.stderr)
    correct = not workload.failures
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {name: {"value": metrics[name], "unit": catalog[name][0]} for name in sorted(catalog)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
