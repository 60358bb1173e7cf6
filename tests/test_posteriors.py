import math
import re

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

from minkdecode.minkowski import transform_values
from minkdecode.posteriors import check_row_sums, floored_log, stack_rows

from conftest import make_edge_rows, make_random_posteriors
from oracles import closed_form_transform, frozen_floored_log, frozen_transform_values

# frozen from the grid oracle: transform(0.8, 4), transform(0.1, 4)
T4_08 = 0.613511790436
T4_01 = 0.324666488787


class TestCheckRowSums:
    # The first row off 1 by more than the tolerance; a NaN sum is not off.
    @pytest.mark.parametrize("rows, bad", [
        ([[0.5, 0.5], [0.25, 0.75]], None),
        ([[0.5, 0.5], [0.5, 0.6], [0.0, 0.0]], 1),
        ([[0.5, 0.5], [0.5, 0.5000011]], 1),
        ([[math.nan, 0.5], [0.5, 0.5]], None),
        ([[math.nan, 0.5], [0.2, 0.2]], 1),
        ([[math.nan, 0.5]], None),
    ], ids=["good", "first-of-two", "just-past", "nan-only", "nan-then-bad", "one-nan-row"])
    def test_first_bad_row(self, rows, bad):
        assert check_row_sums(np.array(rows)) == bad


class TestPosteriorMatrix:
    def test_shape_properties(self, rng):
        m = make_random_posteriors(rng, 5, 3)
        assert (m.frames, m.classes) == (5, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            PosteriorMatrix([[1.2, -0.2]])

    # Each row sums to 1 within the tolerance, so only the range check can
    # refuse it: an entry just past 1 or just below 0.
    @pytest.mark.parametrize("rows", [[[0.5, 0.5], [1.0000005, 0.0]],
                                      [[0.5, 0.5], [1.0, -5e-7]]], ids=["above-1", "below-0"])
    def test_range_is_checked_apart_from_row_sums(self, rows):
        with pytest.raises(ValidationError, match=r"entries must be in \[0, 1\]"):
            PosteriorMatrix(rows)

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

    @pytest.mark.parametrize("rows, row, total", [
        ([[0.7, 0.2]], 0, "0.8999999999999999"),
        ([[0.5, 0.5], [0.5, 0.5], [0.6, 0.6], [0.0, 0.0]], 2, "1.2"),
        ([[0.5, 0.5], [0.5, 0.5000011]], 1, "1.0000011"),
    ])
    def test_rejects_row_sums_off_one(self, rows, row, total):
        with pytest.raises(ValidationError,
                           match=rf"^row {row} sums to {re.escape(total)}, expected 1 within 1e-06$"):
            PosteriorMatrix(rows)

    def test_accepts_row_sums_within_tolerance(self):
        m = PosteriorMatrix([[0.5, 0.4999991], [0.5, 0.5000009], [1.0, 5e-324]])
        assert m.frames == 3


@pytest.mark.parametrize("matrix_type", [PosteriorMatrix, LogScoreMatrix])
class TestMatrixTypes:
    @pytest.mark.parametrize("values", [
        [[np.nan, 0.5]],
        [[np.inf, 0.5]],
        [[-np.inf, 0.5]],
        [0.5, 0.5],
        np.empty((0, 2)),
        [[0.5]],
        [["0.5", "0.5"]],
        [[True, False]],
        [[0.5, 0.5], [1.0]],
        [[True, 0.0], [0.5, 0.5]],
    ], ids=["nan", "inf", "-inf", "1-d", "zero-frames", "one-class", "strings", "bools",
            "ragged", "bool-among-numbers"])
    def test_rejects(self, matrix_type, values):
        with pytest.raises(ValidationError):
            matrix_type(values)

    def test_accepts_integers(self, matrix_type):
        assert matrix_type([[1, 0]]).values.dtype == np.float64

    def test_values_read_only(self, matrix_type):
        m = matrix_type([[0.5, 0.5]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.25

    def test_compares_and_hashes_by_identity(self, matrix_type):
        a, b = matrix_type([[0.5, 0.5]]), matrix_type([[0.5, 0.5]])
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_keeps_a_copy(self, matrix_type):
        source = np.array([[0.5, 0.5], [0.25, 0.75]])
        m = matrix_type(source)
        source[0, 0] = 0.125
        assert m.values.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert (m.frames, m.classes) == (2, 2)


class TestTransformMatrix:
    def test_fixed_point_row(self):
        m = PosteriorMatrix([[0.5, 0.5]])
        out = transform_matrix(m, 4)
        assert np.array_equal(out.values, [[0.5, 0.5]])

    def test_two_class_row_no_renorm(self):
        m = PosteriorMatrix([[0.9, 0.1]])
        out = transform_values(m.values, 4)
        assert out[0, 0] == pytest.approx(1 - T4_01, abs=1e-9)
        assert out[0, 1] == pytest.approx(T4_01, abs=1e-9)
        # two-class rows stay normalized by the symmetry identity
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_three_class_row_renormalized(self):
        m = PosteriorMatrix([[0.8, 0.1, 0.1]])
        out = transform_matrix(m, 4)
        raw = np.array([T4_08, T4_01, T4_01])
        expected = raw / raw.sum()
        assert np.allclose(out.values[0], expected, atol=1e-9)
        assert out.values[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_transform(self, rng):
        m = make_random_posteriors(rng, 10, 4)
        out = transform_values(m.values, 6)
        for t in range(m.frames):
            for c in range(m.classes):
                scalar = closed_form_transform(float(m.values[t, c]), 6)
                assert out[t, c] == pytest.approx(scalar, abs=1e-15)

    def test_order2_bit_identical_without_renorm(self, rng):
        m = make_random_posteriors(rng, 8, 5)
        out = transform_values(m.values, 2)
        assert np.array_equal(out, m.values)

    # A zero row is refused when its matrix is built, before any transform runs.
    def test_zero_row_rejected(self):
        with pytest.raises(ValidationError, match=r"^row 0 sums to 0\.0, expected 1 within 1e-06$"):
            transform_matrix(PosteriorMatrix([[0.0, 0.0]]), 4)

    @pytest.mark.parametrize("order, zero", [(4, 0.0), (2, -0.0)])
    def test_zero_row_named_by_index(self, order, zero):
        with pytest.raises(ValidationError,
                           match=r"^row 2 sums to 0\.0, expected 1 within 1e-06$"):
            transform_matrix(
                PosteriorMatrix([[0.5, 0.5], [0.2, 0.8], [zero, zero], [0.0, 0.0]]), order)

    @pytest.mark.parametrize("kernel", [lambda m: transform_matrix(m, 4), to_log_scores],
                             ids=["transform_matrix", "to_log_scores"])
    def test_refuses_other_matrix_types(self, kernel):
        # The outputs are wrapped unchecked, which only a checked posterior input allows.
        with pytest.raises(ValidationError, match="expected a PosteriorMatrix, got LogScoreMatrix"):
            kernel(LogScoreMatrix([[0.5, 0.5]]))

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
        raw[raw.sum(axis=1) == 0, 0] = 1.0  # an all-zero row becomes one-hot
        m = PosteriorMatrix(raw / raw.sum(axis=1, keepdims=True))
        out = transform_matrix(m, order)
        assert np.all(np.abs(out.values.sum(axis=1) - 1.0) <= 1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 50), st.sampled_from(range(2, 11, 2)))
    @settings(max_examples=100)
    def test_unchecked_outputs_pass_the_checks(self, seed, k, order):
        """`_Matrix._unchecked`'s proof: the outputs pass every check of PosteriorMatrix.

        Rows hold the edge entries 0.0, 5e-324 and 1.0, and some are scaled to
        sum to 1 - 9e-7, near the tolerance.
        """
        rng = np.random.default_rng(seed)
        ms = []
        for _ in range(3):
            values = make_edge_rows(rng, int(rng.integers(1, 20)), k)
            values[rng.random(len(values)) < 0.3] *= 1.0 - 9e-7
            ms.append(PosteriorMatrix(values))
        PosteriorMatrix(stack_rows(ms).values)
        for m in ms:
            PosteriorMatrix(transform_matrix(m, order).values)

    def test_rejects_odd_order(self, rng):
        with pytest.raises(ValidationError, match="probability"):
            transform_matrix(make_random_posteriors(rng, 2, 2), 5)

    def test_argmax_and_ranking_invariance(self, rng):
        for _ in range(30):
            m = make_random_posteriors(rng, 12, 6)
            for order in (4, 6):
                out = transform_matrix(m, order)
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

    @pytest.mark.parametrize("priors", [["0.5", "0.5"], [True, True], [True, 1.0]],
                             ids=["strings", "bools", "bool-among-numbers"])
    def test_prior_must_be_numbers(self, priors):
        with pytest.raises(ValidationError, match="^priors must hold only numbers"):
            to_log_scores(PosteriorMatrix([[0.5, 0.5]]), priors=priors)

    def test_prior_positivity(self):
        with pytest.raises(ValidationError):
            to_log_scores(PosteriorMatrix([[0.5, 0.5]]), priors=[0.0, 1.0])


class TestFrozenKernels:
    """The kernels against their earlier versions, kept verbatim in `oracles`: the same bits."""

    SMALL_EDGES = [0.0, -0.0, 5e-324]
    LARGE_EDGES = [1.0, 1.0 - 2.0**-53]
    EDGES = SMALL_EDGES + LARGE_EDGES
    ORDERS = range(2, 13, 2)

    @classmethod
    def inputs(cls):
        """Rows of K = 2..20 summing to 1 with edge entries, one-hot rows, 0-d and 1-element inputs."""
        rng = np.random.default_rng(1)
        for k in range(2, 21):
            yield make_edge_rows(rng, int(rng.integers(1, 40)), k, small=cls.SMALL_EDGES,
                                 large=cls.LARGE_EDGES, share=0.3)
            yield np.eye(k)
        for v in cls.EDGES + [0.25, 0.5, 0.7]:
            yield v
            yield np.array(v)
            yield np.array([v])

    @staticmethod
    def assert_same_bits(got, want):
        assert type(got) is type(want) and got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_transform_values(self):
        for values in self.inputs():
            for order in self.ORDERS:
                self.assert_same_bits(transform_values(values, order),
                                      frozen_transform_values(values, order))

    def test_floored_log(self):
        for values in self.inputs():
            self.assert_same_bits(floored_log(values), frozen_floored_log(values))

    def test_matrix_kernels(self):
        priors = np.array([0.5, 0.25, 0.25])
        for values in self.inputs():
            if np.ndim(values) != 2:
                continue
            m = PosteriorMatrix(values)
            for order in self.ORDERS:
                raw = frozen_transform_values(m.values, order)
                out = transform_matrix(m, order)
                self.assert_same_bits(out.values, raw / raw.sum(axis=1)[:, None])
                assert not out.values.flags.writeable
                logs = to_log_scores(out)
                self.assert_same_bits(logs.values, frozen_floored_log(out.values))
                assert not logs.values.flags.writeable
            if m.classes == 3:
                logs = to_log_scores(m, priors)
                self.assert_same_bits(logs.values, frozen_floored_log(m.values) - np.log(priors))
                assert not logs.values.flags.writeable
