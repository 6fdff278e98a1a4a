"""Tests for the differential conformance cells and the campaign matrix."""

import json

import pytest

from repro.config import small_config
from repro.crashsim.conformance import QUIESCENT, CellResult, cell_systems, run_cell
from repro.crashsim.matrix import (
    MatrixPoint,
    cell_seed,
    matrix_cache,
    plan_matrix,
    run_matrix,
)
from repro.crashsim.reference import ReferenceController, diff_logical_state
from repro.engine.registry import INTEGRITY_AXIS, build_variant, variant_specs
from repro.exec.journal import RunJournal, read_events


class TestRunCell:
    def test_ps_cell_consistent(self):
        cell = run_cell("ps", point="step4:after-backup", rounds=3, seed=5)
        assert cell.supports
        assert cell.consistent, cell.violations
        assert cell.crashes_fired >= 1
        assert cell.recoveries == 3
        assert cell.trace is None  # only attached on violation

    def test_volatile_variant_is_conformant_when_honest(self):
        cell = run_cell("baseline", point="phase:remap", rounds=3, seed=5)
        assert not cell.supports
        assert cell.consistent, cell.violations
        assert cell.recoveries == 0  # recover() honestly returns False

    def test_quiescent_cell_never_fires(self):
        cell = run_cell("ps", point=QUIESCENT, rounds=3, seed=5)
        assert cell.crashes_fired == 0
        assert cell.quiescent_crashes == 3
        assert cell.consistent, cell.violations

    def test_windowed_cell_conformant(self):
        """The access window drains to a barrier on every crash, so a
        scheduled cell must pass with the same verdict as the serial one
        (docs/SCHEDULER.md)."""
        cell = run_cell("ps", point="step4:after-backup", rounds=3, seed=5,
                        window=4)
        assert cell.supports
        assert cell.consistent, cell.violations
        assert cell.crashes_fired >= 1

    def test_window_changes_cache_key(self):
        base = dict(assembly="ps", point="phase:fetch", wpq="default",
                    rounds=2, seed=9, height=6)
        serial = MatrixPoint(**base)
        windowed = MatrixPoint(**base, window=4)
        assert serial.key() != windowed.key()

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            run_cell("ps", point="step2:after-intent")  # Rcr-only label

    def test_deterministic_modulo_wall_time(self):
        a = run_cell("ps", point="phase:fetch", rounds=3, seed=9).to_dict()
        b = run_cell("ps", point="phase:fetch", rounds=3, seed=9).to_dict()
        a.pop("wall_seconds")
        b.pop("wall_seconds")
        assert a == b

    def test_result_round_trips_through_json(self):
        cell = run_cell("ps", point="phase:fetch", rounds=2, seed=9)
        payload = json.loads(json.dumps(cell.to_dict()))
        assert CellResult.from_dict(payload).to_dict() == cell.to_dict()


class TestDifferentialCheck:
    def test_reference_catches_bystander_corruption(self):
        """The oracle only watches driven addresses; the differential
        diff covers the whole span."""
        controller = build_variant("plain", small_config(height=6, seed=2))
        block_bytes = controller.oram_config.block_bytes
        reference = ReferenceController(16, block_bytes)
        controller.write(3, b"x")
        reference.write(3, b"x")
        # Corrupt a block the workload never touched.
        line = 9 * block_bytes
        controller.memory.store_line(line, b"ghost" + bytes(block_bytes - 5))
        diffs = diff_logical_state(controller, reference)
        assert any("address 9" in d for d in diffs)

    def test_window_tolerance(self):
        controller = build_variant("plain", small_config(height=6, seed=2))
        reference = ReferenceController(16, controller.oram_config.block_bytes)
        controller.write(4, b"new")
        # Reference still holds the old (zero) content, but the op is in
        # the in-flight window — either value is legal.
        pad = lambda b: b + bytes(controller.oram_config.block_bytes - len(b))
        window = {4: (pad(b""), pad(b"new"))}
        assert diff_logical_state(controller, reference, window) == []
        assert diff_logical_state(controller, reference) != []


class TestPlanMatrix:
    def test_covers_every_registered_variant_and_point(self):
        plan = plan_matrix(rounds=2, seed=1)
        names = {spec.name for spec in variant_specs()}
        assert {p.variant for p in plan} == names | set(INTEGRITY_AXIS.values())
        for label, (name, integrity) in cell_systems().items():
            config = small_config(height=6, integrity=integrity)
            expected = set(build_variant(name, config).crash_points()) | {QUIESCENT}
            planned = {p.point for p in plan if p.variant == label}
            assert planned == expected, label
        # Both WPQ geometries, every cell.
        assert {p.wpq for p in plan} == {"default", "small"}

    def test_cell_seeds_are_distinct_and_stable(self):
        a = cell_seed(1, "ps", "phase:fetch", "default")
        assert a == cell_seed(1, "ps", "phase:fetch", "default")
        assert a != cell_seed(1, "ps", "phase:fetch", "small")
        assert a != cell_seed(2, "ps", "phase:fetch", "default")

    def test_restricted_plan(self):
        plan = plan_matrix(variants=["ps"], wpqs=["default"], rounds=1)
        assert {p.variant for p in plan} == {"ps"}
        assert {p.wpq for p in plan} == {"default"}

    def test_integrity_axis_cells(self):
        """An integrity cell runs the base assembly with the domain
        attached, under the ``-int`` label and its own cell seed."""
        plan = plan_matrix(variants=["eadr-int"], wpqs=["default"], rounds=1)
        assert {(p.assembly, p.integrity, p.variant) for p in plan} == {
            ("eadr-oram", True, "eadr-int")
        }
        for point in plan:
            assert point.label.startswith("eadr-int/")
            assert point.seed == cell_seed(1, "eadr-int", point.point, "default")


class TestRunMatrix:
    def test_small_matrix_with_cache_and_journal(self, tmp_path):
        plan = plan_matrix(variants=["ps", "baseline"], wpqs=["default"],
                           rounds=1, seed=3)
        cache = matrix_cache(tmp_path / "cache")
        journal_path = tmp_path / "journal.jsonl"
        with RunJournal(journal_path) as journal:
            outcomes = run_matrix(plan, jobs=1, cache=cache, journal=journal)
        assert len(outcomes) == len(plan)
        assert all(o.ok for o in outcomes)
        assert all(o.result.consistent for o in outcomes)
        assert not any(o.cached for o in outcomes)
        events = {e["event"] for e in read_events(journal_path)}
        assert {"sweep_started", "point_finished", "sweep_finished"} <= events

        # Second run: every cell served from the content-addressed cache.
        rerun = run_matrix(plan, jobs=1, cache=cache)
        assert all(o.cached for o in rerun)
        fresh = {o.point.key(): o.result.to_dict() for o in outcomes}
        for outcome in rerun:
            assert outcome.result.to_dict() == fresh[outcome.point.key()]

    def test_matrix_point_key_depends_on_cell_identity(self):
        base = dict(assembly="ps", point="phase:fetch", wpq="default",
                    rounds=2, seed=1, height=6)
        key = MatrixPoint(**base).key()
        assert key == MatrixPoint(**base).key()
        for field, value in [("point", "phase:remap"), ("wpq", "small"),
                             ("rounds", 3), ("seed", 2), ("height", 7),
                             ("assembly", "rcr-ps"), ("integrity", True)]:
            assert MatrixPoint(**{**base, field: value}).key() != key
