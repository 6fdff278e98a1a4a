"""Tests for service-level crash conformance (repro.serve.conformance)."""

import pytest

from repro.serve.conformance import ServiceCellResult, run_service_cell
from repro.serve.frontend import SERVICE_QUIESCENT


def _small_cell(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("rounds", 2)
    kwargs.setdefault("height", 6)
    kwargs.setdefault("ops_per_burst", 16)
    kwargs.setdefault("num_keys", 8)
    return run_service_cell(**kwargs)


class TestCrashConsistentCell:
    def test_ps_cell_is_consistent(self):
        result = _small_cell(variant="ps", seed=1)
        assert result.consistent, result.violations
        assert result.supports is True
        assert result.recoveries == result.rounds
        assert result.operations == 2 * 16

    def test_crashes_actually_fire(self):
        fired = sum(
            _small_cell(variant="ps", seed=seed).crashes_fired
            for seed in (1, 2, 3)
        )
        assert fired >= 1

    def test_pinned_quiescent_point(self):
        result = _small_cell(variant="ps", point=SERVICE_QUIESCENT, seed=4)
        assert result.consistent, result.violations
        assert result.crashes_fired == 0
        assert result.quiescent_crashes == result.rounds
        # Between batches everything submitted was acknowledged, and a
        # quiescent power cut must lose none of it.
        assert result.acknowledged == result.operations

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            _small_cell(variant="ps", point="shard9:no-such-label")

    @pytest.mark.parametrize("variant", ["ps", "rcr-ps"])
    def test_windowed_cell_is_consistent(self, variant):
        """Shards behind a depth-4 shared WindowScheduler: batch loads/
        commits stream into the window, the worker drains at batch
        boundaries, and every crash cell still conforms."""
        result = _small_cell(variant=variant, seed=6, window=4)
        assert result.window == 4
        assert result.consistent, result.violations
        assert result.supports is True
        assert result.recoveries == result.rounds


class TestVolatileCell:
    def test_baseline_honestly_fails_recovery(self):
        result = _small_cell(variant="baseline", seed=3)
        assert result.supports is False
        assert result.consistent, result.violations
        assert result.recoveries == 0


class TestDeterminism:
    def test_same_seed_same_cell(self):
        first = _small_cell(variant="ps", seed=9).to_dict()
        second = _small_cell(variant="ps", seed=9).to_dict()
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second

    def test_result_round_trips_through_dict(self):
        result = _small_cell(variant="ps", seed=1, integrity=True)
        assert result.to_dict()["integrity"] is True
        clone = ServiceCellResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.consistent == result.consistent
