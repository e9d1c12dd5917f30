"""Unit tests for the five production levels."""

from __future__ import annotations

from repro.core import LEVEL_CONTRACTS, ProductionLevel
from repro.core.levels import contract_for


class TestProductionLevel:
    def test_paper_numbering(self):
        assert ProductionLevel.PHASE == 1
        assert ProductionLevel.JOB == 2
        assert ProductionLevel.ENVIRONMENT == 3
        assert ProductionLevel.PRODUCTION_LINE == 4
        assert ProductionLevel.PRODUCTION == 5

    def test_up_walk_terminates(self):
        level = ProductionLevel.PHASE
        seen = []
        while level is not None:
            seen.append(int(level))
            level = level.up()
        assert seen == [1, 2, 3, 4, 5]

    def test_down_walk_terminates(self):
        level = ProductionLevel.PRODUCTION
        seen = []
        while level is not None:
            seen.append(int(level))
            level = level.down()
        assert seen == [5, 4, 3, 2, 1]

    def test_labels(self):
        assert ProductionLevel.PHASE.label == "phase"
        assert ProductionLevel.PRODUCTION_LINE.label == "production-line"


class TestContracts:
    def test_one_contract_per_level(self):
        assert len(LEVEL_CONTRACTS) == 5
        for level in ProductionLevel:
            assert contract_for(level).level == level

    def test_phase_is_high_resolution_series(self):
        c = contract_for(ProductionLevel.PHASE)
        assert c.data_kind == "series"
        assert "high" in c.resolution

    def test_job_is_vectors(self):
        assert contract_for(ProductionLevel.JOB).data_kind == "vectors"
