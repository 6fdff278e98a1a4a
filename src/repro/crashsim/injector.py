"""Crash injection: stop a controller at any protocol step.

The PS-ORAM controllers expose ``crash_hook``; this injector arms it to
raise :class:`~repro.errors.SimulatedCrash` at a chosen checkpoint (or at
the n-th checkpoint hit, or at a random one).  The power-loss sequence
that follows — unwind, ``crash()`` (ADR flushes committed WPQ rounds,
SRAM clears), ``recover()`` — belongs to the caller; the conformance
round loop (:func:`repro.crashsim.conformance.run_rounds`) runs it and
checks the result.

This is deterministic, step-addressable power-cutting — strictly more
thorough than physically pulling the plug, since every window of the
protocol can be hit on demand (DESIGN.md records the substitution for the
paper's crash scenarios).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SimulatedCrash
from repro.util.rng import DeterministicRNG


class CrashInjector:
    """Arms and fires simulated crashes on a controller."""

    def __init__(self, controller, rng: Optional[DeterministicRNG] = None):
        if not hasattr(controller, "crash_hook"):
            raise TypeError(
                f"{type(controller).__name__} has no crash_hook; only the "
                "PS-ORAM variants support step-level injection"
            )
        self.controller = controller
        self.rng = rng or DeterministicRNG(0xC0FFEE)
        self._armed_point: Optional[str] = None
        self._skip_hits = 0
        self._hits = 0
        self.fired_point: Optional[str] = None

    # -- arming ---------------------------------------------------------------

    def arm(self, point: str, skip_hits: int = 0) -> None:
        """Crash at the (skip_hits + 1)-th time ``point`` is reached."""
        self._armed_point = point
        self._skip_hits = skip_hits
        self._hits = 0
        self.fired_point = None
        self.controller.crash_hook = self._hook

    def arm_random(self, points: Optional[List[str]] = None) -> str:
        """Crash at a uniformly chosen checkpoint; returns the choice.

        Defaults to everything the controller can fire — the engine's
        pipeline phase boundaries plus the policy's protocol checkpoints.
        """
        if points is None:
            points = self.controller.crash_points()
        point = self.rng.choice(list(points))
        self.arm(point)
        return point

    def disarm(self) -> None:
        self.controller.crash_hook = None
        self._armed_point = None

    def _hook(self, label: str) -> None:
        if label != self._armed_point:
            return
        if self._hits < self._skip_hits:
            self._hits += 1
            return
        self.fired_point = label
        raise SimulatedCrash(label)
