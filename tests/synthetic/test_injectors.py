"""Unit tests for the Fig.-1 outlier injectors — the exact shapes matter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.synthetic import (
    LabeledSeries,
    OutlierType,
    constant,
    inject,
    inject_additive,
    inject_innovative,
    inject_level_shift,
    inject_subsequence,
    inject_temporary_change,
)


def flat(n=100):
    return constant(n, 0.0)


class TestAdditive:
    def test_changes_exactly_one_sample(self):
        out, inj = inject_additive(flat(), 40, 5.0)
        delta = out.values - flat().values
        assert delta[40] == 5.0
        assert np.count_nonzero(delta) == 1
        assert inj.span == 1 and inj.index == 40

    def test_negative_index(self):
        out, inj = inject_additive(flat(10), -1, 2.0)
        assert out.values[9] == 2.0
        assert inj.index == 9

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            inject_additive(flat(10), 10, 1.0)


class TestLevelShift:
    def test_permanent_step(self):
        out, inj = inject_level_shift(flat(), 30, 2.0)
        assert np.all(out.values[:30] == 0.0)
        assert np.all(out.values[30:] == 2.0)
        assert inj.span == 70

    def test_label_span_cap(self):
        __, inj = inject_level_shift(flat(), 30, 2.0, label_span=10)
        assert inj.span == 10

    def test_covers(self):
        __, inj = inject_level_shift(flat(), 30, 2.0, label_span=10)
        assert inj.covers(30) and inj.covers(39)
        assert not inj.covers(29) and not inj.covers(40)


class TestTemporaryChange:
    def test_geometric_decay(self):
        out, inj = inject_temporary_change(flat(), 20, 4.0, rho=0.5)
        effect = out.values - flat().values
        assert effect[20] == 4.0
        assert effect[21] == 2.0
        assert effect[22] == 1.0

    def test_span_is_decay_length(self):
        __, inj = inject_temporary_change(flat(), 20, 4.0, rho=0.5,
                                          significance_floor=0.1)
        # 0.5^k < 0.1 at k=4 => span 4
        assert inj.span == 4

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            inject_temporary_change(flat(), 10, 1.0, rho=1.0)
        with pytest.raises(ValueError):
            inject_temporary_change(flat(), 10, 1.0, rho=0.0)

    def test_zero_delta_span_one(self):
        __, inj = inject_temporary_change(flat(), 10, 0.0)
        assert inj.span == 1


class TestInnovative:
    def test_impulse_response_shape(self):
        phi = 0.5
        out, inj = inject_innovative(flat(), 10, 2.0, ar_coefficients=(phi,))
        effect = out.values - flat().values
        assert effect[10] == pytest.approx(2.0)
        assert effect[11] == pytest.approx(2.0 * phi)
        assert effect[12] == pytest.approx(2.0 * phi**2)

    def test_span_follows_decay(self):
        __, inj = inject_innovative(
            flat(), 10, 1.0, ar_coefficients=(0.5,), significance_floor=0.2
        )
        # psi = 1, .5, .25, .125 → |psi| >= 0.2 up to k=2 → span 3
        assert inj.span == 3

    def test_ar2_propagation(self):
        out, __ = inject_innovative(flat(), 5, 1.0, ar_coefficients=(0.5, 0.3))
        effect = out.values - flat().values
        assert effect[6] == pytest.approx(0.5)
        assert effect[7] == pytest.approx(0.5 * 0.5 + 0.3)


class TestSubsequence:
    def test_flat_style_kills_variance(self, rng):
        base = constant(100, 0.0).replace(values=np.sin(np.arange(100.0)))
        out, inj = inject_subsequence(base, 40, 20, rng, style="flat")
        assert np.allclose(np.std(out.values[40:60]), 0.0)
        assert inj.span == 20

    def test_noise_style_raises_variance(self, rng):
        base = constant(200, 0.0).replace(values=np.sin(np.arange(200.0) / 3))
        out, __ = inject_subsequence(base, 50, 40, rng, style="noise", delta=5.0)
        assert np.std(out.values[50:90]) > 3 * np.std(base.values)

    def test_invert_style_mirrors(self, rng):
        values = np.arange(20.0)
        base = constant(20, 0.0).replace(values=values)
        out, __ = inject_subsequence(base, 5, 5, rng, style="invert")
        window = values[5:10]
        assert np.allclose(out.values[5:10], 2 * window.mean() - window)

    def test_unknown_style(self, rng):
        with pytest.raises(ValueError):
            inject_subsequence(flat(), 5, 5, rng, style="bogus")

    def test_length_clipped_to_series_end(self, rng):
        out, inj = inject_subsequence(flat(20), 15, 50, rng)
        assert inj.span == 5


class TestDispatch:
    @pytest.mark.parametrize("otype", list(OutlierType))
    def test_inject_dispatch(self, otype, rng):
        out, inj = inject(flat(), otype, 50, 3.0, rng=rng)
        assert inj.type is otype
        assert len(out) == 100

    def test_subsequence_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            inject(flat(), OutlierType.SUBSEQUENCE, 10, 1.0)


class TestLabeledSeries:
    def test_labels_cover_spans(self):
        series, inj1 = inject_level_shift(flat(), 30, 1.0, label_span=5)
        series, inj2 = inject_additive(series, 60, 2.0)
        ls = LabeledSeries(series, [inj1, inj2])
        labels = ls.labels()
        assert labels[30:35].all() and not labels[35]
        assert labels[60] and not labels[61]
        assert labels.sum() == 6

    def test_onset_labels(self):
        series, inj = inject_level_shift(flat(), 30, 1.0)
        ls = LabeledSeries(series, [inj])
        onsets = ls.onset_labels()
        assert onsets[30] and onsets.sum() == 1

