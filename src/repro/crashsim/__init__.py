"""Crash-injection harness, consistency oracle and conformance matrix.

* :mod:`repro.crashsim.injector` — arms a controller's crash hook so a
  simulated power loss fires at a chosen protocol step (or randomly).
* :mod:`repro.crashsim.checker` — the oracle: tracks every acknowledged
  write and verifies post-recovery content (acknowledged writes durable,
  in-flight accesses atomic).
* :mod:`repro.crashsim.reference` — lock-step volatile reference
  controller and the differential full-state diff.
* :mod:`repro.crashsim.conformance` — the one round loop that checks
  the recovery contract
  (:func:`~repro.crashsim.conformance.run_rounds`) and the single-cell
  conformance runs built on it (oracle + differential, per
  variant/point/WPQ geometry).  Reproducer replay and the service cells
  of :mod:`repro.serve.conformance` run the same loop.
* :mod:`repro.crashsim.matrix` — the campaign matrix over every
  registered variant × crash point × WPQ config, run through the shared
  sweep pool with caching and journaling.
* :mod:`repro.crashsim.minimize` — trace replay, reproducer
  minimization, and the standalone-reproducer JSON format.
* :mod:`repro.crashsim.fuzzer` — the single-cell fuzzing CLI (a cell
  with a random crash point per round).
"""

from repro.crashsim.checker import ConsistencyChecker, CheckReport
from repro.crashsim.conformance import QUIESCENT, CellResult, run_cell
from repro.crashsim.injector import CrashInjector
from repro.crashsim.matrix import MatrixPoint, plan_matrix, run_matrix
from repro.crashsim.minimize import minimize_trace, replay
from repro.crashsim.reference import ReferenceController, diff_logical_state

__all__ = [
    "ConsistencyChecker",
    "CheckReport",
    "CrashInjector",
    "CellResult",
    "MatrixPoint",
    "QUIESCENT",
    "ReferenceController",
    "diff_logical_state",
    "minimize_trace",
    "plan_matrix",
    "replay",
    "run_cell",
    "run_matrix",
]
