import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from minkdecode import (
    LOG_FLOOR,
    LogScoreMatrix,
    PosteriorMatrix,
    ValidationError,
    to_log_scores,
    transform_matrix,
)

from conftest import make_random_posteriors
from oracles import closed_form_transform

# frozen from the grid oracle: transform(0.8, 4), transform(0.1, 4)
T4_08 = 0.613511790436
T4_01 = 0.324666488787


class TestPosteriorMatrix:
    def test_shape_properties(self, rng):
        m = make_random_posteriors(rng, 5, 3)
        assert (m.frames, m.classes) == (5, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            PosteriorMatrix([[1.2, -0.2]])

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            PosteriorMatrix([[1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            PosteriorMatrix([[float("nan"), 1.0]])

    def test_values_read_only(self, rng):
        m = make_random_posteriors(rng, 2, 2)
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.3


@pytest.mark.parametrize("matrix_type", [PosteriorMatrix, LogScoreMatrix])
class TestMatrixTypes:
    @pytest.mark.parametrize("values", [
        [[np.nan, 0.5]],
        [[np.inf, 0.5]],
        [[-np.inf, 0.5]],
        [0.5, 0.5],
        np.empty((0, 2)),
        [[0.5]],
    ], ids=["nan", "inf", "-inf", "1-d", "zero-frames", "one-class"])
    def test_rejects(self, matrix_type, values):
        with pytest.raises(ValidationError):
            matrix_type(values)

    def test_values_read_only(self, matrix_type):
        m = matrix_type([[0.5, 0.5]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.25

    def test_keeps_a_copy(self, matrix_type):
        source = np.array([[0.5, 0.5], [0.25, 0.75]])
        m = matrix_type(source)
        source[0, 0] = 0.125
        assert m.values.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert (m.frames, m.classes) == (2, 2)


class TestTransformMatrix:
    def test_fixed_point_row(self):
        m = PosteriorMatrix([[0.5, 0.5]])
        out = transform_matrix(m, 4, renormalize=True)
        assert np.array_equal(out.values, [[0.5, 0.5]])

    def test_two_class_row_no_renorm(self):
        m = PosteriorMatrix([[0.9, 0.1]])
        out = transform_matrix(m, 4, renormalize=False)
        assert out.values[0, 0] == pytest.approx(1 - T4_01, abs=1e-9)
        assert out.values[0, 1] == pytest.approx(T4_01, abs=1e-9)
        # two-class rows stay normalized by the symmetry identity
        assert out.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_three_class_row_renormalized(self):
        m = PosteriorMatrix([[0.8, 0.1, 0.1]])
        out = transform_matrix(m, 4, renormalize=True)
        raw = np.array([T4_08, T4_01, T4_01])
        expected = raw / raw.sum()
        assert np.allclose(out.values[0], expected, atol=1e-9)
        assert out.values[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_transform(self, rng):
        m = make_random_posteriors(rng, 10, 4)
        out = transform_matrix(m, 6, renormalize=False)
        for t in range(m.frames):
            for c in range(m.classes):
                scalar = closed_form_transform(float(m.values[t, c]), 6)
                assert out.values[t, c] == pytest.approx(scalar, abs=1e-15)

    def test_order2_bit_identical_without_renorm(self, rng):
        m = make_random_posteriors(rng, 8, 5)
        out = transform_matrix(m, 2, renormalize=False)
        assert np.array_equal(out.values, m.values)

    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError, match="row 0 sums to zero"):
            transform_matrix(PosteriorMatrix([[0.0, 0.0]]), 4)

    @given(
        npst.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(2, 5)),
            elements=st.floats(min_value=0.0, max_value=1.0),
        ),
        st.sampled_from([2, 4, 6]),
    )
    @settings(max_examples=200)
    def test_rows_sum_to_one(self, raw, order):
        m = PosteriorMatrix(raw)
        if (raw.sum(axis=1) <= 0).any():
            with pytest.raises(ValidationError):
                transform_matrix(m, order, renormalize=True)
            return
        out = transform_matrix(m, order, renormalize=True)
        assert np.all(np.abs(out.values.sum(axis=1) - 1.0) <= 1e-12)

    def test_rejects_odd_order(self, rng):
        with pytest.raises(ValidationError, match="probability"):
            transform_matrix(make_random_posteriors(rng, 2, 2), 5)

    def test_argmax_and_ranking_invariance(self, rng):
        for _ in range(30):
            m = make_random_posteriors(rng, 12, 6)
            for order in (4, 6):
                out = transform_matrix(m, order, renormalize=True)
                assert np.array_equal(
                    np.argmax(m.values, axis=1), np.argmax(out.values, axis=1)
                )
                assert np.array_equal(
                    np.argsort(m.values, axis=1, kind="stable"),
                    np.argsort(out.values, axis=1, kind="stable"),
                )


class TestToLogScores:
    def test_one_hot_row_floors_zero(self):
        logs = to_log_scores(PosteriorMatrix([[1.0, 0.0]]))
        assert logs.values[0, 0] == 0.0
        assert logs.values[0, 1] == LOG_FLOOR

    def test_uniform_row(self):
        logs = to_log_scores(PosteriorMatrix([[0.5, 0.5]]))
        assert np.allclose(logs.values, math.log(0.5), atol=1e-12)

    def test_prior_division(self):
        logs = to_log_scores(PosteriorMatrix([[0.5, 0.5]]), priors=[0.9, 0.1])
        assert logs.values[0, 0] == pytest.approx(math.log(0.5) - math.log(0.9), abs=1e-12)
        assert logs.values[0, 1] == pytest.approx(math.log(0.5) - math.log(0.1), abs=1e-12)
        assert logs.values[0, 1] == pytest.approx(1.609438, abs=1e-6)

    def test_prior_length_mismatch(self):
        with pytest.raises(ValidationError, match="priors"):
            to_log_scores(PosteriorMatrix([[0.5, 0.5]]), priors=[1.0])

    def test_prior_positivity(self):
        with pytest.raises(ValidationError):
            to_log_scores(PosteriorMatrix([[0.5, 0.5]]), priors=[0.0, 1.0])
