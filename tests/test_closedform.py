import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from hypervis import closedform as cf
from hypervis import procsim as ps
from hypervis.rng import stream

# every closed form here keeps numpy's warnings to itself: an overflow or nan is handled, not warned of
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    def test_largest_dimension(self):
        # Gamma(1 + d/2) overflows a double from d = 342 on
        assert cf.kappa(341) == math.pi ** 170.5 / math.gamma(171.5) > 0.0
        with pytest.raises(ValueError, match="largest supported is d = 341"):
            cf.kappa(342)


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

    @pytest.mark.parametrize("n", [10, 30, 50, 100, 340])
    def test_sinh_profile_matches_hypergeometric(self, n):
        # int_0^t sinh^n = sinh^{n+1} t / ((n+1) cosh t) 2F1(1/2, 1; (n+3)/2; tanh^2 t), a sum of positive
        # terms; the sinh reduction formula cancels below t = asinh 1 at large n
        t = np.linspace(0.05, 1.6, 300)
        oracle = np.sinh(t) ** (n + 1) / ((n + 1) * np.cosh(t)) * hyp2f1(0.5, 1.0, (n + 3) / 2, np.tanh(t) ** 2)
        normal = oracle > 1e-300
        assert np.abs(cf.power_integral(n, t[normal], -1) / oracle[normal] - 1.0).max() <= 1e-13

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

    @pytest.mark.parametrize("n", [*range(2, 10), 340])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_grouped_inverse_matches_groups_alone(self, n, sign):
        # Each root converges on its own: any concatenation of y returns, bit for bit, each y's root alone.
        # y = 0, then 1e-300 up to 1e305 (test_inverse_up_to_the_largest_doubles goes on to 1.7e308)
        rng = np.random.default_rng(n)
        spread = rng.uniform(0.0, 1.0, 100) * 10.0 ** rng.uniform(-8.0, 4.0, 100)
        y = np.concatenate([[0.0], np.sort(np.r_[np.logspace(-300.0, 305.0, 300), spread])])
        alone = np.array([float(cf.power_integral_inverse(n, v, sign)) for v in y])
        assert alone[0] == 0.0 and np.all(np.diff(alone) > 0.0)
        for order in (np.arange(y.size), rng.permutation(y.size), np.r_[rng.permutation(y.size), 0, 7, 7, 150]):
            assert np.array_equal(cf.power_integral_inverse(n, y[order], sign), alone[order])
        assert cf.power_integral_inverse(n, y[1:].reshape(4, 100), sign).shape == (4, 100)
        residual = np.abs(cf.power_integral(n, alone[1:], sign) / y[1:] - 1.0)
        # 2.2e-13: the worst residual of the former group-stopping Newton on these y (n = 9), wherever it
        # converged; at n = 340 it found no sinh root for 39 of them
        assert residual.max() <= 2.2e-13

    @pytest.mark.parametrize("n", [2, 9, 340])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_inverse_up_to_the_largest_doubles(self, n, sign):
        # the reduction formula's f^{n-1} g term and the slope f^n overflow from about 1.8e308 / n, below
        # the integral: there the profile is evaluated with f and g halved, which rounds nothing
        y = np.geomspace(1e300, 1.7e308, 400)
        roots = cf.power_integral_inverse(n, y, sign)
        assert np.all(np.isfinite(roots)) and np.all(np.diff(roots) > 0.0)
        assert np.abs(cf.power_integral(n, roots, sign) / y - 1.0).max() <= 2.2e-13
        assert [float(cf.power_integral_inverse(n, v, sign)) for v in y[::37]] == roots[::37].tolist()

    @pytest.mark.parametrize("n", [2, 9, 340])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_halved_profile_rounds_nothing(self, n, sign):
        t = np.linspace(0.01, float(cf.power_integral_inverse(n, 1.7e308, sign)), 2000)
        with np.errstate(over="ignore", invalid="ignore"):
            whole, f = cf._profile(n, t, sign)
            halved, f_half = cf._profile(n, t, sign, 0.5)
        assert np.isfinite(whole).sum() < len(t) and np.isfinite(halved).all()
        both = np.isfinite(whole) & (halved >= np.finfo(float).tiny)  # scaling rounds subnormals
        assert both.sum() > 1000 and np.array_equal(np.ldexp(halved[both], n), whole[both])
        assert np.array_equal(2.0 * f_half, f)

    def test_inverse_where_the_terms_overflowed(self):
        assert cf.power_integral_inverse(2, 1.7e308) == pytest.approx(355.903139217454, rel=1e-13)
        assert cf.power_integral(340, cf.power_integral_inverse(340, 1e307)) == pytest.approx(1e307, rel=2.2e-13)
        assert cf.radius_at_volume(10, 1.7e308) == pytest.approx(79.43596036846056, rel=1e-13)

    def test_radius_at_volume_beyond_the_doubles_of_the_profile(self):
        # omega_341 = 2.1e-221, so from vol 3.8e87 on the profile int_0^r sinh^340 passes the doubles
        omega = cf.omega(341)
        v = np.geomspace(1e80, 1.7e308, 300)
        radii = np.array([cf.radius_at_volume(341, x) for x in v])
        assert np.all(np.isfinite(radii)) and np.all(np.diff(radii) > 0.0)
        for x, r in zip(v[::25], radii[::25]):  # the profile halved k times, and scaled back, is the volume
            k = max(0, math.ceil((math.log2(x) - math.log2(omega) - 1000.0) / 340))
            volume = cf._profile(340, np.array([r]), -1, 0.5**k)[0][0] * math.ldexp(omega, 340 * k)
            assert volume == pytest.approx(x, rel=2.2e-13)

    # (d, r, omega_d int_0^r sinh^{d-1} by mpmath at 40 digits): the profile passes the doubles, the volume does not
    BEYOND_THE_PROFILE = [(341, 3.0, 1.12177629664325e117), (100, 8.5, 1.08547219147206e296),
                          (60, 13.0, 6.93798282042534e297), (341, 4.0, 1.06862952628068e265)]

    @pytest.mark.parametrize("d, r, volume", BEYOND_THE_PROFILE)
    def test_volume_beyond_the_doubles_of_the_profile(self, d, r, volume):
        assert not math.isfinite(cf.sinh_integral(d, r))
        assert cf.ball_volume(d, r) == pytest.approx(volume, rel=1e-12)
        assert cf.ball_volume(d, np.array([0.5, r]))[1] == cf.ball_volume(d, r)
        assert cf.radius_at_volume(d, volume) == pytest.approx(r, rel=1e-12)

    def test_volume_beyond_the_doubles_stays_inf(self):
        # omega_20 int_0^40 sinh^19 is 6.0e322
        assert cf.ball_volume(20, 40.0) == math.inf
        # the halved terms f^{n-1} g overflow only where the integral passes 2^n / n times the largest double
        assert cf.sinh_integral(341, 4.0) == cf.power_integral(340, math.inf) == math.inf
        assert cf.sinh_integral(341, 3.0) == cf.power_integral(340, math.inf, 1) == math.inf
        assert cf.ball_volume(341, 100.0) == cf.ball_volume(341, math.inf) == math.inf
        assert np.array_equal(cf.ball_volume(341, np.array([4.0, 100.0, 3.0])),
                              [cf.ball_volume(341, 4.0), math.inf, cf.ball_volume(341, 3.0)])
        profile = cf.power_integral(340, np.array([[math.nan, 4.0], [1.0, 1000.0]]))
        assert math.isnan(profile[0, 0]) and profile[0, 1] == profile[1, 1] == math.inf
        assert profile[1, 0] == cf.power_integral(340, 1.0)
        assert math.isnan(cf.sinh_integral(341, math.nan)) and math.isnan(cf.ball_volume(341, math.nan))

    def test_closed_forms_of_one_power_overflow_without_warning(self):
        # the n = 1 profiles 2 sinh^2(t/2) and sinh t, like those of n >= 2, overflow to inf quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cf.ball_volume(2, 1000.0) == math.inf
            assert ps.plane_measure(2, 1000.0) == math.inf

    def test_inverse_at_subnormal_y(self):
        # roots of int_0^t sinh^340 = y for the doubles y nearest 1e-320 and 1e-315, found by mpmath at 50 digits
        # from the 2F1 form of test_sinh_profile_matches_hypergeometric; y keeps about 11 and 27 bits there
        roots = cf.power_integral_inverse(340, np.array([1e-320, 1e-315]), -1)
        assert roots == pytest.approx([0.116958006094907, 0.120955203384898], rel=1e-6)
        # n = 1: the root 2 arcsinh(sqrt(y / 2)) is sqrt(2 y) there, and doubling a subnormal y is exact
        y = np.array([5e-324, 1.5e-323, 1e-310])
        assert cf.power_integral_inverse(1, y, -1) == pytest.approx(np.sqrt(2.0 * y), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 9, 340])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_inverse_at_the_ends_of_the_doubles(self, n, sign):
        y = np.array([0.0, 5e-324, 1e-320, 1.7e308, math.nan, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = cf.power_integral_inverse(n, y, sign)
            alone = [float(cf.power_integral_inverse(n, v, sign)) for v in y]
            pair = cf.power_integral_inverse(n, [1.0, math.inf], sign)
        assert roots[0] == 0.0 and 0.0 < roots[1] < roots[2] < roots[3] < math.inf and math.isnan(roots[4])
        assert roots[5] == math.inf and pair[1] == math.inf and pair[0] == cf.power_integral_inverse(n, 1.0, sign)
        assert np.array_equal(roots, alone, equal_nan=True)
        assert roots[3] == cf.power_integral_inverse(n, np.geomspace(1e300, 1.7e308, 400), sign)[-1]

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

    # (lo, hi) of grain laws and of the stratified estimator's depth bands, tiny, wide and one ulp apart
    DRAW_RANGES = [(0.0, 1.0), (0.0, 1.5), (0.1, 0.6), (0.1, 0.9), (0.2, 0.9), (1e-300, 1e-3),
                   (0.3, 0.30000000000000004), (0.0, 1e-12), (2.5, 7.25), (9.5, 10.0), (19.5, 20.0), (12.0, 700.0),
                   (1.0 / 3.0, math.pi)]

    @pytest.mark.parametrize("lo, hi", DRAW_RANGES)
    def test_draws_are_those_of_generator_uniform(self, lo, hi):
        # the library draws lo + (hi - lo) * Generator.random: the bits of Generator.uniform(lo, hi), at less than
        # half its cost
        n, counts = 2000, [3, 0, 700, 1]
        assert np.array_equal(lo + (hi - lo) * stream(31, 0).random(n), stream(31, 0).uniform(lo, hi, n))
        assert np.array_equal(stream(31, 1).random((2, n)), stream(31, 1).uniform(size=(2, n)))
        law = cf.UniformRadius(lo, hi)
        assert np.array_equal(law.sample_radii([stream(31, 2)], [n]), stream(31, 2).uniform(lo, hi, size=n))
        rounds = law.sample_radii([stream(31, 3, i) for i in range(4)], counts)
        uniform = [stream(31, 3, i).uniform(lo, hi, size=c) for i, c in enumerate(counts)]
        assert np.array_equal(rounds, np.concatenate(uniform))

    def test_fixed_round_radii_draw_nothing(self):
        rngs = [stream(32, i) for i in range(3)]
        radii = cf.FixedRadius(0.5).sample_radii(rngs, np.array([2, 0, 5]))
        assert np.array_equal(radii, np.full(7, 0.5))
        assert all(g.bit_generator.state == stream(32, i).bit_generator.state for i, g in enumerate(rngs))

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

    def test_product_form_against_exact_rationals(self):
        # for a = p/q the value is (d-1)! q^d / prod_{k<d} (p - (d-1-2k) q) exactly; the float is within 1e-14
        # wherever that is a normal float, also beyond d = 171, where (d-1)! is no float
        def exact(d, a):
            p, q = a.as_integer_ratio()
            return Fraction(math.factorial(d - 1) * q**d, math.prod(p - (d - 1 - 2 * k) * q for k in range(d)))

        checked = 0
        for d in range(2, 342):
            for a in (d - 0.5, d - 1 + 1e-6, 2.0 * d, 1e4, 6.4e7):
                value = exact(d, a)
                if value >= sys.float_info.min:
                    assert abs(Fraction(cf.sinh_exp_integral(d, a)) - value) <= 1e-14 * value, (d, a)
                    checked += 1
        assert checked > 1000
        for d in (172, 200, 341):
            assert 0.0 < cf.sinh_exp_integral(d, 2.0 * d) < math.inf

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

    @pytest.mark.parametrize("d, gamma", [(2, 2.0), (10, 80.0), (61, 700.0)])
    def test_zero_cell_relative_precision(self, d, gamma):
        # The rate e^{-(a-d+1) r} tail beyond r = 11 is below 1e-13 of the mean here at d = 10 and 61, though
        # the mean itself (6.1e-44 at d = 61) lies far below quad's absolute tolerance; at d = 2 the tail
        # beyond 12 has the closed form pi (e^{-(a-1) r}/(a-1) - e^{-(a+1) r}/(a+1)).
        a, r = cf.zero_cell_rate(d, gamma), 11.0 if d > 2 else 12.0
        tail = math.pi * (math.exp(-(a - 1) * r) / (a - 1) - math.exp(-(a + 1) * r) / (a + 1)) if d == 2 else 0.0
        assert cf.truncated_visible_volume(d, gamma, None, r) == pytest.approx(
            cf.zero_cell_mean_volume(d, gamma) - tail, rel=1e-10
        )


    @pytest.mark.parametrize("gamma", [1e5, 1e8])
    def test_bump_far_below_the_panel_width(self, gamma):
        # at a = 2 gamma / pi the integrand's bump is 1/a wide: on [0, 12] every node of a few equal panels
        # underflows to 0, so the rule stops at the bump's own scale; 2 pi/(a^2 - 1) is the whole mean at d = 2
        a = cf.zero_cell_rate(2, gamma)
        whole = 2 * math.pi / (a * a - 1)
        assert cf.truncated_visible_volume(2, gamma, None, 12.0) == pytest.approx(whole, rel=1e-13, abs=0.0)


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

    @pytest.mark.parametrize("d,k,j", [(5, 2, 0), (5, 3, 1)])
    def test_square_root_endpoint_below_the_top_order(self, d, k, j):
        # k < d-1: acosh(cosh r / cosh s) still goes as sqrt(r - s) at s = r, which the substitution removes
        assert cf.verify_ell_identity(d, k, j, 2.0) < 1e-8

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


# Independent oracle: scipy's adaptive Gauss-Kronrod quad against the library's fixed-order Gauss-Legendre rule.
ORACLE_RTOL = 1e-13
ORACLE_LAWS = {"planes": None, "fixed:0.5": cf.FixedRadius(0.5), "fixed:1.5": cf.FixedRadius(1.5),
               "uniform:0.2,0.9": cf.UniformRadius(0.2, 0.9), "uniform:0,1.5": cf.UniformRadius(0.0, 1.5)}


def _oracle_quad(f, a, b, points=None):
    value, _ = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=1000, points=points)
    return value


def truncated_by_quad(d, gamma, law, r):
    """omega_d int_0^r e^{-as} sinh^{d-1}(s) ds by quad, split at the peak's doublings so that it finds the bump."""
    a = cf.range_rate(d, gamma, law)
    peak = min(r, math.atanh((d - 1) / a)) if a > d - 1 else r
    sinh_peak = math.sinh(peak)
    top = math.exp(-a * peak) * sinh_peak ** (d - 1)  # OverflowError where the value is beyond the doubles
    splits = [p for p in peak * 2.0 ** np.arange(12) if p < r] or None
    value = _oracle_quad(lambda s: math.exp((d - 1) * math.log(math.sinh(s) / sinh_peak) - a * (s - peak)), 0.0, r,
                         splits)
    return cf.omega(d) * top * value


class TestQuadratureAgainstScipy:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 61])
    @pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
    def test_truncated_visible_volume(self, d, law):
        for gamma in (0.5, 3.0, 40.0, 700.0):
            for r in (0.3, 2.0, 7.0, 20.0):
                try:
                    oracle = truncated_by_quad(d, gamma, ORACLE_LAWS[law], r)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        cf.truncated_visible_volume(d, gamma, ORACLE_LAWS[law], r)
                    continue
                assert cf.truncated_visible_volume(d, gamma, ORACLE_LAWS[law], r) == pytest.approx(
                    oracle, rel=ORACLE_RTOL, abs=0.0
                ), (gamma, r)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_ell(self, d):
        radii = np.array([0.01, 0.3, 1.0, 2.5, 6.0])
        for j in range(d):
            oracle = [cf.omega(d - j) * _oracle_quad(lambda t: math.cosh(t) ** j * math.sinh(t) ** (d - 1 - j), 0.0, r)
                      for r in radii]
            assert cf.ell(d, j, radii) == pytest.approx(oracle, rel=ORACLE_RTOL, abs=0.0)
            assert [cf.ell(d, j, r) for r in radii] == pytest.approx(oracle, rel=ORACLE_RTOL, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 10, 61])
    @pytest.mark.parametrize("lo, hi", [(0.2, 0.9), (0.0, 1.5)])
    def test_uniform_grain_moments(self, d, lo, hi):
        gm = cf.grain_moments(d, cf.UniformRadius(lo, hi))
        surface = _oracle_quad(lambda r: cf.ball_surface(d, r), lo, hi) / (hi - lo)
        volume = _oracle_quad(lambda r: float(cf.ball_volume(d, r)), lo, hi) / (hi - lo)
        assert gm.v_dm1 == pytest.approx(surface, rel=ORACLE_RTOL, abs=0.0)
        assert gm.mean_volume == pytest.approx(volume, rel=ORACLE_RTOL, abs=0.0)

    def test_fixed_grain_moments_need_no_quadrature(self):
        gm = cf.grain_moments(3, cf.FixedRadius(0.7))
        assert (gm.v_dm1, gm.mean_volume) == (cf.ball_surface(3, 0.7), float(cf.ball_volume(3, 0.7)))


class TestGaussLegendreRule:
    def test_vector_of_integrals(self):
        k = np.arange(1.0, 6.0)[:, None]
        exact = np.expm1(2.0 * k[:, 0]) / k[:, 0]
        assert cf._quad(lambda x: np.exp(k * x), 0.0, 2.0) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_refuses_an_unconverged_value(self):
        # a jump converges only as the panel width, far from 1e-13 at the panel limit
        with pytest.raises(ValueError, match="did not reach 1e-13 relative"):
            cf._quad(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0)
