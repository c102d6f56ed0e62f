import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypervis import closedform as cf
from hypervis import procsim as ps
from hypervis.rng import stream


def ell_closed(d, j, r):
    """Hand-derived antiderivatives for d <= 3 (the cross-check route)."""
    if (d, j) == (2, 0):
        return 2 * math.pi * (math.cosh(r) - 1)
    if (d, j) == (2, 1):
        return 2 * math.sinh(r)
    if (d, j) == (3, 0):
        return 2 * math.pi * (math.sinh(r) * math.cosh(r) - r)
    if (d, j) == (3, 1):
        return math.pi * math.sinh(r) ** 2
    if (d, j) == (3, 2):
        return math.sinh(r) * math.cosh(r) + r
    raise NotImplementedError


class TestConstants:
    def test_known_values(self):
        assert cf.kappa(1) == pytest.approx(2.0, abs=1e-14)
        assert cf.kappa(2) == pytest.approx(math.pi, abs=1e-14)
        assert cf.kappa(3) == pytest.approx(4 * math.pi / 3, abs=1e-13)
        assert cf.kappa(4) == pytest.approx(math.pi**2 / 2, abs=1e-13)

    def test_recursion(self):
        for d in range(3, 10):
            assert cf.kappa(d) == pytest.approx(cf.kappa(d - 2) * 2 * math.pi / d, rel=1e-13)

    def test_omega(self):
        for d in range(2, 8):
            assert cf.omega(d) == pytest.approx(d * cf.kappa(d), rel=1e-14)
        c = cf.Constants.for_dim(3)
        assert c.omega_d == pytest.approx(4 * math.pi, rel=1e-14)


class TestEll:
    @pytest.mark.parametrize("d,j", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    @pytest.mark.parametrize("r", [0.2, 1.0, 2.5])
    def test_against_antiderivatives(self, d, j, r):
        assert cf.ell(d, j, r) == pytest.approx(ell_closed(d, j, r), abs=1e-10)

    def test_frozen_value(self):
        assert cf.ell(2, 0, 1.0) == pytest.approx(3.412276265284902, abs=1e-10)
        assert cf.ell(3, 0, 1.0) == pytest.approx(5.110932705708288, abs=1e-10)

    def test_vanishes_at_zero(self):
        for d in (2, 3, 4, 5):
            for j in range(d):
                assert cf.ell(d, j, 0.0) == 0.0

    def test_strictly_increasing(self):
        grid = np.linspace(0.1, 3.0, 8)
        for d in (2, 4):
            for j in range(d):
                vals = [cf.ell(d, j, r) for r in grid]
                assert np.all(np.diff(vals) > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="j <= d-1"):
            cf.ell(3, 3, 1.0)
        with pytest.raises(ValueError, match="j <= d-1"):
            cf.ell(3, -1, 1.0)

    def test_deriv(self):
        for d, j in ((3, 1), (4, 2)):
            h = 1e-6
            numeric = (cf.ell(d, j, 1.0 + h) - cf.ell(d, j, 1.0 - h)) / (2 * h)
            assert cf.ell_deriv(d, j, 1.0) == pytest.approx(numeric, rel=1e-8)


class TestBallMeasures:
    def test_volume_values(self):
        assert cf.ball_volume(2, 1.0) == pytest.approx(2 * math.pi * (math.cosh(1) - 1), abs=1e-12)
        assert cf.ball_volume(3, 1.0) == pytest.approx(2 * math.pi * (math.sinh(1) * math.cosh(1) - 1), abs=1e-12)
        assert cf.ball_volume(5, 0.0) == 0.0

    def test_surface_values(self):
        assert cf.ball_surface(2, 0.5) == pytest.approx(2 * math.pi * math.sinh(0.5), abs=1e-12)
        assert cf.ball_surface(3, 1.0) == pytest.approx(4 * math.pi * math.sinh(1) ** 2, abs=1e-12)
        assert cf.ball_surface(2, 1e-12) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_profile_matches_quadrature(self, d):
        for s in (1e-6, 0.05, 0.7, 3.0, 12.0):
            oracle, _ = quad(lambda t: math.sinh(t) ** (d - 1), 0.0, s, epsabs=1e-13, epsrel=1e-13)
            assert cf.sinh_integral(d, s) == pytest.approx(oracle, rel=1e-10, abs=1e-18)
            oracle, _ = quad(lambda t: math.cosh(t) ** (d - 1), 0.0, s, epsabs=1e-13, epsrel=1e-13)
            assert ps.plane_measure(d, s) == pytest.approx(2.0 * oracle, rel=1e-10, abs=1e-18)

    def test_profile_vectorized(self):
        s = np.array([0.0, 0.01, 1.0, 20.0])
        out = cf.sinh_integral(3, s)
        assert out.shape == s.shape
        assert out[0] == 0.0

    def test_surface_is_volume_derivative(self):
        for d in (2, 3, 5):
            h = 1e-6
            numeric = (float(cf.ball_volume(d, 2.0 + h)) - float(cf.ball_volume(d, 2.0 - h))) / (2 * h)
            assert cf.ball_surface(d, 2.0) == pytest.approx(numeric, rel=1e-8)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_radius_at_volume_roundtrip(self, d):
        for r in (0.2, 1.0, 4.0, 13.0):
            assert cf.radius_at_volume(d, float(cf.ball_volume(d, r))) == pytest.approx(r, rel=1e-9)

    def test_mc_ball_volume(self):
        est, stderr = cf.mc_ball_volume(2, 1.0, 200_000, stream(11, 0))
        target = 2 * math.pi * (math.cosh(1) - 1)
        assert abs(est - target) < 3 * stderr
        assert stderr < 0.01


class TestGrainMoments:
    def test_fixed(self):
        gm = cf.grain_moments(2, cf.FixedRadius(0.5))
        v1 = 2 * math.pi * math.sinh(0.5)
        assert gm.v_dm1 == pytest.approx(v1, abs=1e-12)
        assert gm.v_dm1_star == pytest.approx(v1 / math.pi, rel=1e-12)
        assert gm.mean_volume == pytest.approx(2 * math.pi * (math.cosh(0.5) - 1), abs=1e-12)

    def test_uniform_mean_surface(self):
        gm = cf.grain_moments(2, cf.UniformRadius(0.0, 1.0))
        assert gm.v_dm1 == pytest.approx(2 * math.pi * (math.cosh(1) - 1), abs=1e-9)

    def test_star_relation(self):
        for d in (2, 3, 4):
            gm = cf.grain_moments(d, cf.UniformRadius(0.2, 0.9))
            assert gm.v_dm1_star == pytest.approx(cf.kappa(d - 1) / (d * cf.kappa(d)) * gm.v_dm1, rel=1e-12)

    def test_invalid_laws(self):
        with pytest.raises(ValueError):
            cf.UniformRadius(0.0, 0.0)
        with pytest.raises(ValueError):
            cf.UniformRadius(-0.1, 1.0)
        with pytest.raises(ValueError):
            cf.FixedRadius(0.0)

    def test_parse(self):
        assert cf.parse_grain_law("fixed:0.5") == cf.FixedRadius(0.5)
        assert cf.parse_grain_law("uniform:0,1") == cf.UniformRadius(0.0, 1.0)
        with pytest.raises(ValueError, match="unknown grain law"):
            cf.parse_grain_law("gauss:1")


class TestSinhExpIntegral:
    def test_spot_values(self):
        assert cf.sinh_exp_integral(2, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert cf.sinh_exp_integral(3, 4.0) == pytest.approx(1.0 / 24.0, abs=1e-14)
        assert math.isinf(cf.sinh_exp_integral(2, 1.0))
        assert math.isinf(cf.sinh_exp_integral(2, 0.5))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gamma_form_vs_quadrature(self, d):
        for a in (d - 1 + 0.5, float(d), d + 3.0):
            gamma_form = cf.sinh_exp_integral(d, a)
            quad_form = cf.sinh_exp_integral_quadrature(d, a)
            assert abs(gamma_form - quad_form) / gamma_form < 1e-10


class TestMeanVisibleVolume:
    def test_table_value_d2(self):
        law = cf.FixedRadius(0.5)
        v1 = 2 * math.pi * math.sinh(0.5)
        gamma = 1.5
        expected = 2 * math.pi**3 / (gamma**2 * v1**2 - math.pi**2)
        assert cf.mean_visible_volume(2, gamma, law) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.351649658525523, rel=1e-12)

    def test_table_value_d3(self):
        law = cf.FixedRadius(1.0)
        v2 = 4 * math.pi * math.sinh(1) ** 2
        gamma = 10.0 / v2  # gamma * v2 = 10 > 8
        expected = 512 * math.pi / (10.0 * (100.0 - 64.0))
        assert cf.mean_visible_volume(3, gamma, law) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.468042885105484, rel=1e-12)

    def test_infinite_at_figure_intensity(self):
        law = cf.FixedRadius(0.5)
        assert math.isinf(cf.mean_visible_volume(2, 1.0 / (2 * math.sinh(0.5)), law))

    def test_strictly_decreasing_and_diverging(self):
        law = cf.FixedRadius(0.5)
        beta = cf.visibility_threshold(2, 0.5)
        gammas = beta * (1 + np.array([1e-6, 1e-3, 0.1, 1.0, 10.0]))
        vals = [cf.mean_visible_volume(2, g, law) for g in gammas]
        assert np.all(np.diff(vals) < 0)
        assert vals[0] > 1e5


class TestTruncatedVisibleVolume:
    def test_zero_radius(self):
        assert cf.truncated_visible_volume(2, 1.0, cf.FixedRadius(0.5), 0.0) == 0.0

    def test_antiderivative_at_rate_two(self):
        # gamma chosen so the rate gamma * v* equals 2
        law = cf.FixedRadius(0.5)
        gamma = 2.0 / (2 * math.sinh(0.5))
        r = 1.0
        expected = 2 * math.pi * (1 / 3 - math.exp(-r) / 2 + math.exp(-3 * r) / 6)
        assert cf.truncated_visible_volume(2, gamma, law, r) == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.9908046486783583, abs=1e-12)

    def test_monotone_and_limit(self):
        law = cf.FixedRadius(0.5)
        gamma = 2.0 / (2 * math.sinh(0.5))
        vals = [cf.truncated_visible_volume(2, gamma, law, r) for r in (0.5, 1.0, 2.0, 5.0)]
        assert np.all(np.diff(vals) > 0)
        assert cf.truncated_visible_volume(2, gamma, law, 40.0) == pytest.approx(
            cf.mean_visible_volume(2, gamma, law), abs=1e-8
        )


class TestTruncationAsymptote:
    def _gamma_for_rate(self, a):
        return a / (2 * math.sinh(0.5))

    def test_critical(self):
        tag, value = cf.truncation_asymptote(2, self._gamma_for_rate(1.0), cf.FixedRadius(0.5), 10.0)
        assert tag == "critical"
        assert value == pytest.approx(math.pi * 10, rel=1e-9)

    def test_subcritical(self):
        tag, value = cf.truncation_asymptote(2, self._gamma_for_rate(0.5), cf.FixedRadius(0.5), 10.0)
        assert tag == "subcritical"
        assert value == pytest.approx(2 * math.pi * math.exp(5.0), rel=1e-9)
        assert value == pytest.approx(932.5073806654156, rel=1e-9)

    def test_supercritical_tail(self):
        tag, value = cf.truncation_asymptote(2, self._gamma_for_rate(2.0), cf.FixedRadius(0.5), 5.0)
        assert tag == "supercritical"
        assert value == pytest.approx(math.pi * math.exp(-5.0), rel=1e-9)
        assert value == pytest.approx(0.021167884792604296, rel=1e-9)

    def test_tail_matches_integral(self):
        # supercritical comparator approximates the remainder integral as r grows
        law = cf.FixedRadius(0.5)
        gamma = self._gamma_for_rate(2.0)
        r = 12.0
        tail = cf.mean_visible_volume(2, gamma, law) - cf.truncated_visible_volume(2, gamma, law, r)
        _, comparator = cf.truncation_asymptote(2, gamma, law, r)
        assert tail == pytest.approx(comparator, rel=1e-8)


class TestCriticalScaling:
    def test_values(self):
        assert cf.critical_scaling(2, 0.1) == pytest.approx(10 * math.pi, rel=1e-13)
        assert cf.critical_scaling(3, 0.5) == pytest.approx(2 * math.pi, rel=1e-13)

    def test_ratio_to_one(self):
        law = cf.FixedRadius(0.5)
        for d in (2, 3):
            v_star = cf.grain_moments(d, law).v_dm1_star
            for delta in (1e-3, 1e-5):
                gamma = (d - 1 + delta) / v_star
                ratio = cf.mean_visible_volume(d, gamma, law) / cf.critical_scaling(d, delta)
                assert abs(ratio - 1.0) < 10 * delta + 1e-2 * delta**0.5


class TestIntersectionDensity:
    def test_d2_value(self):
        assert cf.intersection_density(2, 1.0, cf.FixedRadius(0.5)) == pytest.approx(
            4 * math.pi * math.sinh(0.5) ** 2, rel=1e-12
        )

    def test_zero_intensity(self):
        assert cf.intersection_density(2, 0.0, cf.FixedRadius(0.5)) == 0.0

    def test_homogeneity(self):
        for d in (2, 3):
            law = cf.UniformRadius(0.1, 0.6)
            assert cf.intersection_density(d, 2.0, law) == pytest.approx(
                2**d * cf.intersection_density(d, 1.0, law), rel=1e-12
            )

    def test_exact_identity(self):
        for d in (2, 3):
            law = cf.FixedRadius(0.7)
            gm = cf.grain_moments(d, law)
            assert cf.intersection_density(d, 1.3, law) == cf.kappa(d) * (1.3 * gm.v_dm1_star) ** d


class TestVisibilityThreshold:
    def test_values(self):
        assert cf.visibility_threshold(2, 0.5) == pytest.approx(1 / (2 * math.sinh(0.5)), rel=1e-13)
        assert cf.visibility_threshold(3, 1.0) == pytest.approx(2 / (math.pi * math.sinh(1) ** 2), rel=1e-13)
        assert round(cf.visibility_threshold(2, 0.5), 4) == 0.9595

    def test_matches_rate_threshold(self):
        for d, r in ((2, 0.5), (3, 1.0), (4, 0.8)):
            beta = cf.visibility_threshold(d, r)
            v_star = cf.grain_moments(d, cf.FixedRadius(r)).v_dm1_star
            assert beta * v_star == pytest.approx(d - 1, rel=1e-12)


class TestZeroCell:
    def test_values(self):
        assert cf.zero_cell_mean_volume(2, 2.0) == pytest.approx(2 * math.pi**3 / (16 - math.pi**2), rel=1e-12)
        assert cf.zero_cell_mean_volume(2, 10.0) == pytest.approx(2 * math.pi**3 / (400 - math.pi**2), rel=1e-12)
        assert math.isinf(cf.zero_cell_mean_volume(2, math.pi / 2))

    def test_structural_equality_with_boolean(self):
        # equal exponential rates give equal gamma-form volumes
        for d, gamma in ((2, 2.0), (3, 5.0)):
            rate = cf.zero_cell_rate(d, gamma)
            assert cf.zero_cell_mean_volume(d, gamma) == cf.omega(d) * cf.sinh_exp_integral(d, rate)


class TestEllIdentity:
    def test_zero_radius(self):
        assert cf.verify_ell_identity(3, 1, 0, 0.0) == 0.0

    @pytest.mark.parametrize("d,k,j", [(3, 1, 0), (3, 2, 0), (3, 2, 1), (4, 2, 1), (4, 3, 1)])
    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_grid_residuals(self, d, k, j, r):
        assert cf.verify_ell_identity(d, k, j, r) < 1e-8

    def test_analytic_cross_check(self):
        # d=3, k=1, j=0: the left side reduces to 2 pi (cosh^2 r tanh r - r)
        r = 1.0
        lhs = 2 * math.pi * (math.cosh(r) ** 2 * math.tanh(r) - r)
        assert lhs == pytest.approx(ell_closed(3, 0, r), rel=1e-13)
        assert cf.verify_ell_identity(3, 1, 0, r) < 1e-10

    def test_precondition(self):
        with pytest.raises(ValueError, match="j < k"):
            cf.verify_ell_identity(3, 1, 1, 1.0)
        with pytest.raises(ValueError, match="j < k"):
            cf.verify_ell_identity(3, 3, 1, 1.0)


class TestSteinerBall:
    def test_d2_coefficients(self):
        coeffs = cf.steiner_ball_coefficients(2, 1.0)
        assert coeffs[0] == pytest.approx(math.cosh(1.0), abs=1e-6)
        assert coeffs[1] == pytest.approx(math.pi * math.sinh(1.0), abs=1e-6)

    def test_zero_parallel_radius(self):
        assert cf.steiner_ball_check(2, 1.0, 0.0) == 0.0

    def test_prediction_residuals(self):
        assert cf.steiner_ball_check(2, 1.0, 0.8) < 1e-6
        assert cf.steiner_ball_check(3, 0.5, 0.9) < 1e-6
        assert cf.steiner_ball_check(4, 0.6, 0.5) < 1e-6
