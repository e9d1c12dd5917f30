"""Unit tests for the OLAP cube exploration operations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.olap.operations import CubeExplorer


@pytest.fixture
def explorer():
    # 2 features, 3 bins; cell (2, 0) occupied exactly once
    binned = np.array(
        [[0, 0]] * 10 + [[1, 1]] * 10 + [[0, 1]] * 5 + [[2, 0]],
        dtype=np.int64,
    )
    return CubeExplorer(binned, n_bins=3, max_order=2)


class TestRollup:
    def test_single_dimension(self, explorer):
        counts = explorer.rollup([0])
        assert counts[(0,)] == 15
        assert counts[(1,)] == 10
        assert counts[(2,)] == 1

    def test_pair_dimension(self, explorer):
        counts = explorer.rollup([0, 1])
        assert counts[(0, 0)] == 10
        assert counts[(2, 0)] == 1

    def test_counts_sum_to_n(self, explorer):
        assert sum(explorer.rollup([0]).values()) == 26

    def test_unmaterialized_subspace_rejected(self):
        binned = np.zeros((5, 4), dtype=np.int64)
        explorer = CubeExplorer(binned, n_bins=2, max_order=1)
        with pytest.raises(KeyError):
            explorer.rollup([0, 1])


class TestSliceAndDrill:
    def test_slice_returns_matching_rows(self, explorer):
        rows = explorer.slice(0, 2)
        assert rows.tolist() == [25]

    def test_slice_out_of_range_dim(self, explorer):
        with pytest.raises(IndexError):
            explorer.slice(9, 0)

    def test_drilldown_cell(self, explorer):
        rows = explorer.drilldown((0, 1), (0, 1))
        assert len(rows) == 5
        assert np.all(explorer._binned[rows, 0] == 0)
        assert np.all(explorer._binned[rows, 1] == 1)


class TestTopCells:
    def test_rarest_cell_first(self, explorer):
        top = explorer.top_anomalous_cells(k=3)
        assert top[0].count == 1
        assert (top[0].dims, top[0].bins) in {((0,), (2,)), ((1,), (2,)), ((0, 1), (2, 0))}

    def test_rarity_sorted(self, explorer):
        top = explorer.top_anomalous_cells(k=10)
        rarities = [c.rarity for c in top]
        assert rarities == sorted(rarities, reverse=True)

    def test_min_count_filter(self, explorer):
        top = explorer.top_anomalous_cells(k=20, min_count=5)
        assert all(c.count >= 5 for c in top)

    def test_records_of_roundtrip(self, explorer):
        top = explorer.top_anomalous_cells(k=1)[0]
        rows = explorer.records_of(top)
        assert len(rows) == top.count

    def test_describe_with_names(self, explorer):
        cell = explorer.top_anomalous_cells(k=1)[0]
        text = cell.describe(names=["temp", "pressure"])
        assert "bin" in text
        assert "count=" in text

    def test_rejects_bad_k(self, explorer):
        with pytest.raises(ValueError):
            explorer.top_anomalous_cells(k=0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            CubeExplorer(np.zeros(5, dtype=np.int64), n_bins=2)
