import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkdecode import LossOrder, ValidationError
from minkdecode.minkowski import transform_values

import oracles
from oracles import (
    GradientPolynomial,
    Posterior,
    SolverError,
    analyze_odd_order,
    brute_force_transform,
    closed_form_transform,
    expected_loss,
    gradient_coefficients,
    newton_transform,
)

# Values frozen from the brute-force grid oracle (10^7 steps + golden
# refinement); closed form and Newton independently agree to < 1e-9.
ORACLE = {
    (0.1, 4): 0.324666488787,
    (0.1, 6): 0.391873242731,
    (0.8, 4): 0.613511790436,
    (0.9, 4): 0.675333511213,
    (0.9, 6): 0.608126757269,
    (0.2, 4): 0.386488209564,
}

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
even_orders = st.sampled_from([2, 4, 6, 8, 10])


class TestLossOrder:
    def test_even_construction(self):
        assert LossOrder(4).value == 4

    def test_rejects_odd(self):
        with pytest.raises(ValidationError, match="complex"):
            LossOrder(3)

    def test_rejects_below_two(self):
        for bad in (1, 0, -2):
            with pytest.raises(ValidationError):
                LossOrder(bad)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(ValidationError, match="order must be an integer"):
            LossOrder(bad)

    def test_order_limit(self):
        # Below 2**53, n - 1 is an exact float.
        n = 2**53 - 2
        assert LossOrder(n).value == n
        out = transform_values([0.0, 0.25, 0.5, 1.0], n)
        assert out[0] == 0.0 and 0.25 < out[1] <= 0.5 and out[2] == 0.5 and out[3] == 1.0
        for bad in (2**53, 2**54, 10**400):
            with pytest.raises(ValidationError, match=rf"^order must be below 2\*\*53, got {bad}$"):
                LossOrder(bad)

    def test_accepted_by_operations(self):
        assert closed_form_transform(0.3, LossOrder(4)) == closed_form_transform(0.3, 4)


class TestPosterior:
    def test_accepts_unit_interval(self):
        assert Posterior(0.25).value == 0.25

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            Posterior(bad)


class TestExpectedLoss:
    def test_mu_half_at_zero(self):
        assert expected_loss(0.0, 0.5, 4) == 0.5

    def test_perfect_prediction(self):
        assert expected_loss(1.0, 1.0, 6) == 0.0

    def test_direct_arithmetic(self):
        # independent evaluation of the two monomials
        expected = 0.9 * 0.3**4 + 0.1 * 0.7**4
        assert expected == pytest.approx(0.0313, abs=1e-12)
        assert expected_loss(0.3, 0.1, 4) == expected

    def test_rejects_out_of_domain_prediction(self):
        with pytest.raises(ValidationError):
            expected_loss(1.5, 0.5, 4)

    @given(unit_floats, unit_floats, even_orders)
    def test_nonnegative(self, y, mu, order):
        assert expected_loss(y, mu, order) >= 0.0


class TestGradientCoefficients:
    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.9])
    def test_order4_pattern(self, mu):
        poly = gradient_coefficients(mu, 4)
        assert poly.coefficients == (1.0, -3 * mu, 3 * mu, -mu)

    @pytest.mark.parametrize("mu", [0.2, 0.5, 0.9])
    def test_order6_pattern(self, mu):
        poly = gradient_coefficients(mu, 6)
        assert poly.coefficients == (1.0, -5 * mu, 10 * mu, -10 * mu, 5 * mu, -mu)

    def test_mu_zero(self):
        assert gradient_coefficients(0.0, 4).coefficients == (1.0, 0.0, 0.0, 0.0)

    def test_degree_and_leading(self):
        poly = gradient_coefficients(0.3, 8)
        assert poly.degree == 7
        assert poly.coefficients[0] == 1.0

    def test_rejects_odd(self):
        with pytest.raises(ValidationError, match="odd"):
            gradient_coefficients(0.5, 3)

    def test_matches_factored_form(self, rng):
        # coefficient expansion of (1-mu) y^m + mu (y-1)^m
        for _ in range(50):
            mu = float(rng.uniform(0, 1))
            y = float(rng.uniform(0, 1))
            n = int(rng.choice([4, 6, 8]))
            poly = gradient_coefficients(mu, n)
            direct = (1 - mu) * y ** (n - 1) + mu * (y - 1) ** (n - 1)
            assert poly(y) == pytest.approx(direct, abs=1e-12)

    def test_invalid_polynomial_rejected(self):
        with pytest.raises(ValidationError):
            GradientPolynomial((2.0, 1.0, 1.0, 1.0), 4, 0.5)
        with pytest.raises(ValidationError):
            GradientPolynomial((1.0, 0.0), 4, 0.0)


class TestClosedFormTransform:
    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_symmetry_fixed_point(self, order):
        assert closed_form_transform(0.5, order) == 0.5

    def test_order2_is_identity(self):
        for mu in np.linspace(0, 1, 41):
            assert closed_form_transform(float(mu), 2) == float(mu)

    @pytest.mark.parametrize(("mu", "order"), list(ORACLE))
    def test_against_frozen_oracle(self, mu, order):
        assert closed_form_transform(mu, order) == pytest.approx(ORACLE[(mu, order)], abs=1e-9)

    @pytest.mark.parametrize(("mu", "order"), [(0.1, 4), (0.7, 6)])
    def test_against_live_grid_oracle(self, mu, order):
        grid = brute_force_transform(mu, order)
        assert closed_form_transform(mu, order) == pytest.approx(grid, abs=1e-5)

    def test_boundaries_exact(self):
        for order in (2, 4, 6):
            assert closed_form_transform(0.0, order) == 0.0
            assert closed_form_transform(1.0, order) == 1.0

    @given(unit_floats, st.sampled_from(range(2, 13, 2)))
    @settings(max_examples=500)
    def test_is_the_pipeline_kernel(self, mu, order):
        # Bit for bit: the oracles check closed_form_transform, the pipeline runs the kernel.
        assert closed_form_transform(mu, order) == transform_values(np.array([mu]), order)[0]


class TestNewtonTransform:
    def test_mu_zero_reduces_to_monomial(self):
        assert newton_transform(0.0, 4) == 0.0

    def test_matches_closed_form(self):
        for mu in np.linspace(0, 1, 101):
            for order in (4, 6):
                c = closed_form_transform(float(mu), order)
                n = newton_transform(float(mu), order)
                assert n == pytest.approx(c, abs=1e-9)

    def test_symmetric_case(self):
        assert newton_transform(0.9, 6) == pytest.approx(ORACLE[(0.9, 6)], abs=1e-9)
        assert newton_transform(0.9, 6) == pytest.approx(1 - ORACLE[(0.1, 6)], abs=1e-9)

    def test_convergence_failure_reports_state(self, monkeypatch):
        monkeypatch.setattr(oracles, "NEWTON_MAX_ITERATIONS", 1)
        with pytest.raises(SolverError) as excinfo:
            newton_transform(0.1, 6)
        assert 0.0 <= excinfo.value.last_iterate <= 1.0
        assert excinfo.value.residual > 0


class TestBruteForceTransform:
    def test_symmetry(self):
        assert brute_force_transform(0.5, 4) == pytest.approx(0.5, abs=1e-5)

    def test_weak_posterior(self):
        assert brute_force_transform(0.1, 4) == pytest.approx(0.32467, abs=1e-5)

    def test_boundary(self):
        assert brute_force_transform(1.0, 6) == pytest.approx(1.0, abs=1e-6)

    def test_returns_python_float(self):
        assert type(brute_force_transform(0.3, 4)) is float


class TestTransformProperties:
    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), st.sampled_from([4, 6, 8]))
    @settings(max_examples=200)
    def test_symmetry_identity(self, mu, order):
        lhs = closed_form_transform(1.0 - mu, order)
        rhs = 1.0 - closed_form_transform(mu, order)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
           st.sampled_from([2, 4, 6]))
    @settings(max_examples=200)
    def test_strict_monotonicity(self, a, b, order):
        # strictness is only meaningful for pairs separated beyond float noise
        if abs(a - b) < 1e-9:
            return
        lo, hi = min(a, b), max(a, b)
        assert closed_form_transform(lo, order) < closed_form_transform(hi, order)

    @given(st.floats(min_value=1e-6, max_value=0.5 - 1e-6))
    @settings(max_examples=200)
    def test_contraction_toward_half(self, mu):
        t4 = closed_form_transform(mu, 4)
        t6 = closed_form_transform(mu, 6)
        assert mu < t4 < 0.5
        assert mu < t6 < 0.5
        assert t4 < t6  # higher order contracts harder

    @given(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([4, 6]))
    @settings(max_examples=300)
    def test_stationarity_of_root(self, mu, order):
        poly = gradient_coefficients(mu, order)
        assert abs(poly(closed_form_transform(mu, order))) < 1e-10

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           st.sampled_from([4, 6, 8, 10]))
    @example(5e-324, 4)
    @example(1.0 - 2.0**-53, 4)
    @settings(max_examples=500)
    def test_logit_temperature_identity(self, mu, order):
        # logit(T_n(mu)) = logit(mu) / (n - 1). Over 400k values at these orders
        # (uniform, log-uniform down to 1e-323, and within 1e-16 of 1) the
        # largest relative error measured was 4.2e-14. Order 2 is left out: the
        # reference's exp overflows for subnormal mu there.
        want = 1.0 / (1.0 + math.exp(-(math.log(mu) - math.log1p(-mu)) / (order - 1)))
        got = transform_values(np.array([mu]), order)[0]
        assert abs(got - want) <= 1e-12 * want

    def test_fixed_points_every_even_order(self):
        for order in (2, 4, 6, 8, 10):
            assert closed_form_transform(0.0, order) == 0.0
            assert closed_form_transform(0.5, order) == 0.5
            assert closed_form_transform(1.0, order) == 1.0


class TestAnalyzeOddOrder:
    def test_order3_midpoint(self):
        res = analyze_odd_order(0.5, 3)
        assert not res.has_valid_probability_root
        assert sorted(res.roots, key=lambda z: z.imag) == [0.5 - 0.5j, 0.5 + 0.5j]

    def test_order3_boundary(self):
        res = analyze_odd_order(0.0, 3)
        assert res.roots == (0j, 0j)
        assert res.has_valid_probability_root
        res = analyze_odd_order(1.0, 3)
        assert res.roots == (1 + 0j, 1 + 0j)
        assert res.has_valid_probability_root

    def test_order5_midpoint(self):
        res = analyze_odd_order(0.5, 5)
        assert len(res.roots) == 4
        assert not res.has_valid_probability_root

    def test_rejects_even(self):
        with pytest.raises(ValidationError, match="even"):
            analyze_odd_order(0.5, 4)

    def test_order3_matches_quadratic_formula(self):
        for mu in np.arange(0.01, 1.0, 0.01):
            mu = float(mu)
            res = analyze_odd_order(mu, 3)
            s = cmath.sqrt(complex(mu * mu - mu))
            expected = sorted([mu - s, mu + s], key=lambda z: (z.real, z.imag))
            for got, want in zip(res.roots, expected):
                assert abs(got - want) < 1e-12

    def test_no_probability_root_on_open_interval(self):
        for mu in (0.01, 0.25, 0.5, 0.75, 0.99):
            for order in (3, 5, 7):
                assert not analyze_odd_order(mu, order).has_valid_probability_root


class TestTripleAgreementSpot:
    # the full 1001-point sweep lives in the acceptance suite
    @pytest.mark.parametrize("mu", [0.001, 0.1, 0.37, 0.5, 0.73, 0.999])
    @pytest.mark.parametrize("order", [4, 6])
    def test_three_routes_agree(self, mu, order):
        c = closed_form_transform(mu, order)
        n = newton_transform(mu, order)
        b = brute_force_transform(mu, order)
        assert abs(c - n) < 1e-9
        assert abs(c - b) < 1e-5
        assert abs(n - b) < 1e-5
