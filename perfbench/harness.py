"""Shared measurement protocol: timed span, percentiles, run records.

Protocol of one run (see README.md):

1. *Set-up* (host clock, reported as ``setup_s``): input generation and
   system build are repeated up to :data:`SETUP_REPEATS` times (while a
   build takes under :data:`REPEAT_BELOW_S`) and their median is taken;
   preload and warm-up then run once on the last build.
2. *Timed span*: the scheduler is drained and every counter snapshotted,
   then the workload completes a fixed number of requests, sized to last
   about ``--seconds`` nominal seconds.  Host and modeled
   metrics cover the same work; modeled ones repeat bit for bit for a
   given seed and span on any machine.
3. *Checks* outside timing: recovery trials and read-back verification.

Host time is measured in short intervals with a
:class:`calibrate.SpeedProbe` timed between them, and every host metric
is reported in nominal seconds (host seconds scaled by the probe's
reading of the machine's speed at that moment); the raw host seconds go
into the run record next to them.

With ``--trace 1`` the span is run twice on fresh builds: once plain and
once with the tracer installed.  Every modeled output of the two runs
must be equal, and the per-layer metrics come from the traced one.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from calibrate import SpeedProbe

#: Builds per run whose median is the build part of ``setup_s``...
SETUP_REPEATS = 3
#: ...as long as one build takes less than this (host seconds); a longer
#: build is already a steady measurement and is not repeated.
REPEAT_BELOW_S = 2.0

#: Speed probes taken before and after each set-up phase.
PROBES_AROUND_PHASE = 3

#: Core clock of every modeled system (paper Table 3a: 3.2 GHz).
CORE_HZ = 3.2e9


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (the convention of repro.serve.loadgen)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: Path) -> Optional[str]:
    """HEAD commit when the checkout carries its own ``.git``, else None."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest(root: Path) -> str:
    """SHA-256 over the program and benchmark sources (identifies the code)."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path) -> Dict[str, object]:
    """Machine and code identity stored with every run record."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
    }


class Setup:
    """Host-clock bookkeeping of one run's set-up phases.

    With a probe, every phase is bracketed by :data:`PROBES_AROUND_PHASE`
    probes on each side and also converted to nominal seconds; probes the
    phase takes itself (the workload's warm-up and preload loops probe
    between segments) are not counted in its time.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.probe = probe
        self.builds: List[float] = []
        self.gen_s: List[float] = []
        self.preload_s = 0.0
        self.warmup_s = 0.0
        #: The same phases in nominal seconds (with a probe).
        self.nominal: Dict[str, List[float]] = {"builds": [], "preload_s": [], "warmup_s": []}

    def _run(self, key: str, fn: Callable[[], object]):
        probe = self.probe
        if probe is not None:
            probe.probe(PROBES_AROUND_PHASE)
        start = time.perf_counter()
        value = fn()
        end = time.perf_counter()
        seconds = end - start
        if probe is not None:
            probe.probe(PROBES_AROUND_PHASE)
            seconds, nominal = probe.convert(start, end)
            self.nominal[key].append(nominal)
        return value, seconds

    def build(self, make: Callable[[], object], repeats: int):
        """Run ``make`` (generate inputs + build) up to ``repeats`` times; keep the last."""
        built = None
        for _ in range(repeats):
            built = None  # free the previous system before building the next
            gc.collect()
            built, seconds = self._run("builds", make)
            self.builds.append(seconds)
            self.gen_s.append(built.gen_s)
            if seconds >= REPEAT_BELOW_S:
                break
        return built

    def timed(self, phase: str, fn: Callable[[], None]) -> None:
        _, seconds = self._run(phase, fn)
        setattr(self, phase, getattr(self, phase) + seconds)

    @property
    def total_s(self) -> float:
        """Set-up time in host seconds."""
        return statistics.median(self.builds) + self.preload_s + self.warmup_s

    @property
    def nominal_total_s(self) -> float:
        """Set-up time in nominal seconds (needs a probe)."""
        nominal = self.nominal
        return (
            statistics.median(nominal["builds"])
            + sum(nominal["preload_s"]) + sum(nominal["warmup_s"])
        )

    def record(self) -> Dict[str, object]:
        record = {
            "builds_s": self.builds,
            "gen_s": self.gen_s,
            "preload_s": self.preload_s,
            "warmup_s": self.warmup_s,
            "setup_s": self.total_s,
        }
        if self.probe is not None:
            record["nominal"] = dict(self.nominal, setup_s=self.nominal_total_s)
        return record


class SpanResult:
    """What one timed span measured."""

    def __init__(self) -> None:
        self.requests = 0
        self.accesses = 0
        #: Host seconds from the span's start to its end, probes included.
        self.elapsed_s = 0.0
        #: Host seconds the workload excluded (crash + recovery).
        self.excluded_s = 0.0
        #: Host seconds of the segments, less the excluded time.
        self.measured_s = 0.0
        #: The same in nominal seconds (0 without a probe).
        self.nominal_s = 0.0
        self.base: Dict = {}
        self.end: Dict = {}
        self.segments: List[Dict[str, float]] = []

    def record(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "accesses": self.accesses,
            "elapsed_s": self.elapsed_s,
            "excluded_s": self.excluded_s,
            "measured_s": self.measured_s,
            "nominal_s": self.nominal_s,
            "segments": self.segments,
        }


def run_span(workload, requests: int, tracer=None, probe: Optional[SpeedProbe] = None) -> SpanResult:
    """Step ``workload`` until ``requests`` more requests have completed.

    The span is a fixed amount of work, so every modeled output is a pure
    function of the seed and the span length, and host time is measured
    over the same work on every run.  It is timed in segments of
    ``workload.SEGMENT_REQUESTS`` requests; with a ``probe``, the probe is
    taken before the first segment and after each one, outside the
    segments' time, and each segment is converted to nominal seconds.
    Host time the workload reports as excluded (crash + recovery) is
    subtracted from every segment.
    """
    result = SpanResult()
    workload.begin_span()
    result.base = workload.snapshot()
    segment_len = workload.SEGMENT_REQUESTS
    perf = time.perf_counter
    excluded_base = workload.excluded_s
    if probe is not None:
        probe.probe()
    if tracer is not None:
        tracer.open_root()
    start = perf()
    seg_start = start
    seg_excluded = excluded_base
    seg_requests = 0
    seg_accesses = workload.accesses()
    while result.requests < requests:
        done = workload.step()
        if done is None:
            raise RuntimeError(f"{workload.name}: generated inputs ran out before the span ended")
        result.requests += done
        seg_requests += done
        if seg_requests >= segment_len or result.requests >= requests:
            now = perf()
            accesses = workload.accesses()
            net = (now - seg_start) - (workload.excluded_s - seg_excluded)
            result.segments.append({
                "start": seg_start,
                "end": now,
                "requests": seg_requests,
                "accesses": accesses - seg_accesses,
                "seconds": net,
                "access_per_s": (accesses - seg_accesses) / net,
            })
            result.measured_s += net
            if probe is not None:
                probe.probe()
            seg_start, seg_excluded = perf(), workload.excluded_s
            seg_requests, seg_accesses = 0, accesses
    result.elapsed_s = perf() - start
    if tracer is not None:
        tracer.close_root()
    result.excluded_s = workload.excluded_s - excluded_base
    result.end = workload.snapshot()
    result.accesses = result.end["accesses"] - result.base["accesses"]
    if probe is not None:
        for segment in result.segments:
            segment["nominal_s"] = probe.nominal_s(
                segment["seconds"], segment["start"], segment["end"]
            )
            result.nominal_s += segment["nominal_s"]
    return result


def first_difference(a, b, path: str = "") -> Optional[str]:
    """Path of the first difference between two nested snapshots, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                return f"{path}/{key}: present on one side only"
            found = first_difference(a[key], b[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for index, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{index}]")
            if found:
                return found
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"
