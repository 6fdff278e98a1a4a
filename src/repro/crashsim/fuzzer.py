"""Crash-fuzzing campaigns: randomized end-to-end consistency validation.

The crash matrix (:mod:`repro.crashsim.matrix`) pins every cell to one
checkpoint; a campaign goes further — randomized (workload, crash point,
crash timing) combinations against one variant, with the consistency
oracle *and* the differential reference check verifying after each power
cycle.  This is the Jiang et al. "crash consistency validation" style of
testing the paper cites [33], applied to our own implementation.

Since the conformance subsystem landed, a campaign is simply a cell with
a random crash point per round: :func:`run_campaign` wraps
:func:`repro.crashsim.conformance.run_cell` and keeps the original
result shape for existing callers.

Usable as a library (:func:`run_campaign`) or a CLI::

    python -m repro.crashsim --variant ps --rounds 50
    python -m repro.crashsim --variant rcr-ps --rounds 20 --seed 9
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.crashsim.conformance import cell_systems, run_cell


@dataclass
class CampaignResult:
    """Outcome of one crash-fuzzing campaign."""

    variant: str
    rounds: int
    crashes_fired: int
    quiescent_crashes: int
    operations: int
    violations: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def consistent(self) -> bool:
        return not self.violations


def run_campaign(
    variant: str = "ps",
    rounds: int = 30,
    seed: int = 1,
    height: int = 6,
    ops_between_crashes: int = 8,
    small_wpq: bool = False,
    integrity: bool = False,
) -> CampaignResult:
    """Run one randomized crash campaign against a fresh system.

    Each round: a burst of random writes/reads through the oracle, a crash
    armed at a random checkpoint (with random skip count, so later
    occurrences of the same checkpoint get hit too), one interrupted
    operation, power-cycle, full verification (oracle + differential).
    """
    cell = run_cell(
        variant,
        point=None,  # random checkpoint each round
        wpq="small" if small_wpq else "default",
        rounds=rounds,
        seed=seed,
        height=height,
        ops_between_crashes=ops_between_crashes,
        integrity=integrity,
    )
    return CampaignResult(
        variant=cell.variant,
        rounds=cell.rounds,
        crashes_fired=cell.crashes_fired,
        quiescent_crashes=cell.quiescent_crashes,
        operations=cell.operations,
        violations=list(cell.violations),
        wall_seconds=cell.wall_seconds,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crashsim", description=__doc__
    )
    # Every registered variant (and its integrity-axis label) is a legal
    # target: volatile designs are fuzzed for *honest* recovery failure,
    # consistent ones for the full oracle.
    systems = cell_systems()
    parser.add_argument("--variant", default="ps", choices=list(systems))
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--height", type=int, default=6)
    parser.add_argument("--small-wpq", action="store_true",
                        help="4-entry WPQs (ordered multi-round evictions)")
    args = parser.parse_args(argv)

    variant, integrity = systems[args.variant]
    result = run_campaign(
        variant=variant, rounds=args.rounds, seed=args.seed,
        height=args.height, small_wpq=args.small_wpq, integrity=integrity,
    )
    print(f"variant:            {args.variant}")
    print(f"rounds:             {result.rounds}")
    print(f"operations:         {result.operations}")
    print(f"mid-access crashes: {result.crashes_fired}")
    print(f"quiescent crashes:  {result.quiescent_crashes}")
    print(f"wall time:          {result.wall_seconds:.1f}s")
    if result.consistent:
        print("verdict:            CONSISTENT — no violations")
        return 0
    print("verdict:            VIOLATIONS FOUND")
    for violation in result.violations:
        print(f"  {violation}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
