import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from hypervis import closedform as cf
from hypervis import procsim as ps
from hypervis import visibility as vis
from hypervis.rng import stream

import hypgeom as hg
from conftest import ks_statistic, random_rotation
from oracles import (
    assert_point,
    fermi_band_first_touches,
    rotate_about_base,
    sample_boolean_rejected,
    sample_poisson_ball,
)


class TestSampleRadial:
    def test_range(self, rng):
        for d in (2, 3, 5):
            t = ps.sample_radial_annulus(d, 0.0, [2.0], [rng], [500])
            assert np.all((t >= 0) & (t <= 2.0))

    def test_d2_cdf(self):
        r_max = 2.0
        t = ps.sample_radial_annulus(2, 0.0, [r_max], [stream(101)], [10_000])
        stat = ks_statistic(t, lambda x: (np.cosh(x) - 1) / (math.cosh(r_max) - 1))
        assert stat < 1.63 / 100

    def test_d3_mean_matches_quadrature(self):
        r_max = 2.0
        t = ps.sample_radial_annulus(3, 0.0, [r_max], [stream(102)], [20_000])
        norm, _ = quad(lambda s: math.sinh(s) ** 2, 0, r_max)
        mean, _ = quad(lambda s: s * math.sinh(s) ** 2, 0, r_max)
        mean /= norm
        assert abs(t.mean() - mean) < 3 * t.std(ddof=1) / math.sqrt(len(t))

    @pytest.mark.parametrize(
        "d, r_max", [(d, 1.5) for d in range(2, 11)] + [(8, 0.1), (10, 0.05)]  # near the origin
    )
    def test_cdf(self, d, r_max):
        t = ps.sample_radial_annulus(d, 0.0, [r_max], [stream(103)], [10_000])
        norm, _ = quad(lambda s: math.sinh(s) ** (d - 1), 0, r_max)

        def cdf(x):
            return np.array([quad(lambda s: math.sinh(s) ** (d - 1), 0, xi)[0] / norm for xi in np.atleast_1d(x)])

        assert ks_statistic(t, cdf) < 1.63 / 100

    def test_annulus_restriction(self, rng):
        t = ps.sample_radial_annulus(3, 1.0, [1.5], [rng], [1000])
        assert np.all((t >= 1.0) & (t <= 1.5))

    @pytest.mark.parametrize("sample", [ps.sample_radial_annulus, ps.sample_plane_distances])
    def test_bounds_refused(self, sample):
        # both annulus samplers refuse reversed, empty and negative bounds alike, before any draw
        for t_lo, t_hi in ((1.0, [0.5]), (1.0, [1.5, 1.0]), (-1.0, [0.5])):
            with pytest.raises(ValueError, match="need 0 <= t_lo < t_hi"):
                sample(3, t_lo, t_hi, [stream(104)] * len(t_hi), [10] * len(t_hi))


class TestSamplePoissonBall:
    def test_mean_count(self):
        d, gamma, r_max = 2, 1.0, 1.5
        expected = gamma * float(cf.ball_volume(d, r_max))
        counts = np.array([len(sample_poisson_ball(d, gamma, r_max, stream(5, i))) for i in range(1000)])
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 3 * stderr

    def test_poisson_dispersion(self):
        counts = np.array([len(sample_poisson_ball(2, 1.0, 1.5, stream(6, i))) for i in range(1000)])
        mean = counts.mean()
        var = counts.var(ddof=1)
        # sampling stderr of the variance estimate for a Poisson count
        stderr_var = math.sqrt(2 * var**2 / (len(counts) - 1) + var / len(counts))
        assert abs(var - mean) < 4 * stderr_var

    def test_near_zero_intensity(self, rng):
        pts = sample_poisson_ball(2, 1e-9 / float(cf.ball_volume(2, 1.0)), 1.0, rng)
        assert len(pts) == 0

    def test_points_on_hyperboloid(self, rng):
        pts = sample_poisson_ball(3, 2.0, 1.0, rng)
        for x in pts:
            assert_point(x)

    def test_resource_guard(self, rng):
        with pytest.raises(ValueError, match="resource guard"):
            sample_poisson_ball(2, 1e6, 15.0, rng)


class TestSampleBoolean:
    def test_invariants(self, rng):
        law = cf.UniformRadius(0.1, 0.6)
        sample = ps.sample_boolean(2, 1.5, law, 2.0, rng)
        assert sample.window_radius == pytest.approx(2.6)
        assert np.all(sample.radii <= 0.6 + 1e-12)
        dists = np.arccosh(np.maximum(1.0, sample.centers[:, 0]))
        assert np.all(dists <= sample.window_radius + 1e-9)
        assert sample.conditioned
        assert np.all(dists > sample.radii)  # base point uncovered

    def test_mecke_mean_covering_count(self):
        # unconditioned mean number of grains containing the base point
        law = cf.FixedRadius(0.5)
        expected = 1.0 * float(cf.ball_volume(2, 0.5))
        counts = []
        for i in range(1000):
            s = ps.sample_boolean(2, 1.0, law, 1.5, stream(7, i), condition_origin_free=False)
            d0 = np.arccosh(np.maximum(1.0, s.centers[:, 0]))
            counts.append(int(np.sum(d0 <= s.radii)))
        counts = np.array(counts)
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 3 * stderr

    def test_uncovered_probability(self):
        law = cf.FixedRadius(0.5)
        expected = math.exp(-1.0 * float(cf.ball_volume(2, 0.5)))
        hits = 0
        n = 10_000
        for i in range(n):
            s = ps.sample_boolean(2, 1.0, law, 1.0, stream(8, i), condition_origin_free=False)
            d0 = np.arccosh(np.maximum(1.0, s.centers[:, 0]))
            hits += int(not np.any(d0 <= s.radii))
        p_hat = hits / n
        stderr = math.sqrt(expected * (1 - expected) / n)
        assert abs(p_hat - expected) < 3 * stderr

    def test_delete_matches_rejection(self):
        law = cf.FixedRadius(0.5)
        n = 4000
        deleted = np.array(
            [ps.sample_boolean(2, 1.0, law, 1.5, stream(9, i)).n_grains for i in range(n)]
        )
        rejected = np.array(
            [sample_boolean_rejected(2, 1.0, law, 1.5, stream(10, i)).n_grains for i in range(n)]
        )
        diff = deleted.mean() - rejected.mean()
        stderr = math.sqrt(deleted.var(ddof=1) / n + rejected.var(ddof=1) / n)
        assert abs(diff) < 3 * stderr

    def test_rejection_refused_beyond_guard(self, rng):
        # P(base point uncovered) = exp(-50 vol B(1)) ~ e^{-171}: rejection would never finish
        with pytest.raises(ValueError, match="resource guard"):
            sample_boolean_rejected(2, 50.0, cf.FixedRadius(1.0), 1.0, rng)

    def test_reproducible(self):
        law = cf.UniformRadius(0.0, 1.0)
        a = ps.sample_boolean(2, 1.2, law, 2.0, stream(11, 0))
        b = ps.sample_boolean(2, 1.2, law, 2.0, stream(11, 0))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.radii, b.radii)

    def test_isotropy_two_sample(self):
        # nearest-grain distance distribution is unchanged by a fixed rotation
        law = cf.FixedRadius(0.3)
        q = random_rotation(2, stream(12))

        def nearest(sample, rotate):
            centers = rotate_about_base(sample.centers, q) if rotate else sample.centers
            return float(np.arccosh(np.maximum(1.0, centers[:, 0])).min())

        plain = [nearest(ps.sample_boolean(2, 1.0, law, 2.0, stream(13, i)), False) for i in range(800)]
        rotated = [nearest(ps.sample_boolean(2, 1.0, law, 2.0, stream(14, i)), True) for i in range(800)]
        assert ks_2samp(plain, rotated).pvalue > 0.01


class TestSampleHyperplanes:
    def test_window_is_the_annulus_from_the_base_point(self):
        # the planes meeting B(base, r_obs) are the annulus [0, r_obs]: offsets >= 0, as one generator draws them
        sample = ps.sample_hyperplanes(3, 2.0, 1.5, stream(17))
        dists, dirs, counts = ps.sample_hyperplane_annulus(3, 2.0, 0.0, [1.5], [stream(17)])
        normals = ps.normals_from_polar(dists, dirs)
        assert counts[0] > 5 and np.array_equal(sample.normals, normals) and (normals[:, 0] >= 0.0).all()
        with pytest.raises(ValueError, match="r_obs must be > 0"):
            ps.sample_hyperplanes(3, 2.0, 0.0, stream(17))

    def test_normal_invariants(self, rng):
        sample = ps.sample_hyperplanes(2, 1.0, 2.0, rng)
        for n in sample.normals:
            assert hg.minkowski_dot(n, n) == pytest.approx(1.0, abs=1e-9)
            assert abs(n[0]) <= math.sinh(sample.window_radius) + 1e-9
        assert sample.d == 2

    def test_construction_identity(self, rng):
        # the normal built from (offset, direction) annihilates the foot point
        for d in (2, 3):
            x = rng.uniform(-2, 2)
            w = ps.unit_vectors(d, [rng], [1])[0]
            n = ps.normals_from_polar(np.array([x]), w[None, :])[0]
            assert hg.minkowski_dot(n, n) == pytest.approx(1.0, abs=1e-12)
            u = np.concatenate([[0.0], w])
            foot = hg.exp_map(hg.base_point(d), u, abs(x))
            if x >= 0:
                assert abs(hg.minkowski_dot(foot, n)) < 1e-9

    def test_count_mean_d2(self):
        gamma, r_obs = 1.0, 2.0
        expected = gamma * 2 * math.sinh(r_obs)
        counts = np.array([ps.sample_hyperplanes(2, gamma, r_obs, stream(15, i)).n_planes for i in range(1000)])
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 3 * stderr

    def test_count_mean_d3(self):
        gamma, r_obs = 0.7, 1.5
        expected = gamma * (math.sinh(r_obs) * math.cosh(r_obs) + r_obs)
        counts = np.array([ps.sample_hyperplanes(3, gamma, r_obs, stream(16, i)).n_planes for i in range(1000)])
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - expected) < 3 * stderr

    def test_offset_density_d2(self):
        r_obs = 1.5
        dists = ps.sample_plane_distances(2, 0.0, [r_obs], [stream(17)], [10_000])
        stat = ks_statistic(dists, lambda x: np.sinh(x) / math.sinh(r_obs))
        assert stat < 1.63 / 100

    @pytest.mark.parametrize("d", range(2, 11))
    def test_offset_density(self, d):
        r_obs = 1.0
        dists = ps.sample_plane_distances(d, 0.0, [r_obs], [stream(18)], [10_000])
        norm, _ = quad(lambda s: math.cosh(s) ** (d - 1), 0, r_obs)

        def cdf(x):
            return np.array([quad(lambda s: math.cosh(s) ** (d - 1), 0, xi)[0] / norm for xi in np.atleast_1d(x)])

        assert ks_statistic(dists, cdf) < 1.63 / 100


class TestBandFirstTouches:
    @pytest.mark.parametrize("s_lo", [0.0, 2.0, 7.5])
    def test_band_survival_matches_rate(self, s_lo):
        # survival over a depth band is exp(-a * width) with a = gamma * v*
        gamma, law, width = 0.9, cf.FixedRadius(0.5), 0.5
        a = gamma * cf.grain_moments(2, law).v_dm1_star
        n = 40_000
        first = ps.band_first_touches(2, gamma, law, s_lo, s_lo + width, n, stream(19, int(10 * s_lo)))
        p_hat = np.mean(np.isinf(first))
        p = math.exp(-a * width)
        assert abs(p_hat - p) < 4 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("s_lo", [0.0, 7.5])
    @pytest.mark.parametrize("law", [cf.FixedRadius(0.5), cf.UniformRadius(0.1, 0.9)], ids=["fixed", "uniform"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_fermi_window_oracle(self, d, law, s_lo):
        # the band draw leaves out the window's grains that cannot touch inside the band, and w with them
        width, n = 1.0, 20_000
        a = 0.9
        gamma = a / cf.grain_moments(d, law).v_dm1_star
        seed = 10 * d + int(s_lo)
        band = ps.band_first_touches(d, gamma, law, s_lo, s_lo + width, n, stream(22, seed))
        window = fermi_band_first_touches(d, gamma, law, s_lo, s_lo + width, n, stream(23, seed))
        clear = math.exp(-a * width)
        for first in (band, window):
            assert abs(np.mean(np.isinf(first)) - clear) < 4 * math.sqrt(clear * (1 - clear) / n)
        censor = s_lo + 2 * width
        assert ks_2samp(np.minimum(band, censor), np.minimum(window, censor)).pvalue > 0.01

    def test_touch_positions_in_band(self, rng):
        first = ps.band_first_touches(2, 1.0, cf.UniformRadius(0.1, 0.7), 1.0, 1.5, 2000, rng)
        hit = first[np.isfinite(first)]
        assert np.all((hit > 1.0) & (hit <= 1.5))

    def test_first_touch_density_is_exponential(self):
        # conditional first touch in a long band follows the truncated Exp(a) law
        gamma, law = 1.1, cf.FixedRadius(0.4)
        a = gamma * cf.grain_moments(2, law).v_dm1_star
        first = ps.band_first_touches(2, gamma, law, 0.0, 3.0, 60_000, stream(20))
        hit = first[np.isfinite(first)]
        trunc = 1.0 - math.exp(-a * 3.0)
        stat = ks_statistic(hit, lambda x: (1.0 - np.exp(-a * x)) / trunc)
        assert stat < 1.63 / math.sqrt(len(hit))


    def test_resource_guard(self):
        # d = 2: a band of width w takes (w + 2 max radius) * omega_1 * sinh(max radius) grains per unit intensity
        law = cf.FixedRadius(0.5)
        gamma = ps.MAX_EXPECTED_COUNT / (1.5 * cf.omega(1) * math.sinh(0.5) * 1000)  # 1000 experiments hold the guard
        with pytest.raises(ps.ResourceGuardError, match="1000 band experiments exceeds resource guard"):
            ps.band_first_touches(2, gamma * 1.01, law, 0.0, 0.5, 1000, stream(21))


def sphere_cap_share(d, w):
    """Share of uniform directions in S^{d-1} at versine 1 - cos theta below w <= 1: I_{w(2-w)}((d-1)/2, 1/2) / 2."""
    from scipy.special import betainc

    return 0.5 * betainc((d - 1) / 2, 0.5, w * (2.0 - w))


class TestDirectionCaps:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("gap", [1.0, 0.3, 1e-3, 1e-20])
    def test_kept_versines_are_the_directions_of_the_cap(self, d, gap):
        # proposals of mean cap_share keep, on average, the sphere's share of the cap, distributed as its angles;
        # 20 cases, each at the 0.1% level (a missing thinning moves the law far more than that)
        n = 40_000
        vers, keep = ps.cap_versines(d, gap, [stream(80, d, round(-math.log10(gap)))], [n])
        assert np.all((vers >= 0.0) & (vers < gap))
        kept = vers[keep] / gap
        # share of the directions with versine below w, over that of the cap: by the density (w (2 - w))^{(d-3)/2}
        cap = sphere_cap_share(d, gap)
        mean = ps.cap_share(d, gap) * len(kept) / n
        assert abs(mean - cap) < 4 * math.sqrt(ps.cap_share(d, gap) * mean / n)
        stat = ks_statistic(kept, lambda x: sphere_cap_share(d, x * gap) / cap)
        assert stat < 1.95 / math.sqrt(len(kept))

    def test_cap_gaps(self):
        assert ps.plane_cap_gap(0.0) == 1.0 and ps.grain_cap_gap(0.5, 0.3) == 1.0
        for t in (0.01, 1.0, 5.0, 15.0, 40.0):
            assert ps.plane_cap_gap(t) == pytest.approx(math.exp(-t) / math.cosh(t), rel=1e-14)  # 1 - tanh t
            s = math.sinh(0.5) / math.sinh(0.5 + t)
            assert ps.grain_cap_gap(0.5, 0.5 + t) == pytest.approx(2 * math.sin(math.asin(s) / 2) ** 2, rel=1e-12)
        assert ps.plane_cap_gap(400.0) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_capped_annuli_hold_the_reachable_obstacles(self, d):
        # the ray e_1 meets as many obstacles of an annulus on average when only its cap is sampled
        gamma, law, t_lo, t_hi, n = 2.0, cf.UniformRadius(0.2, 0.6), 0.8, 1.6, 3000
        ray = np.eye(d)[:1]

        def agree(full, capped, counts):
            # full: the ray's hits among all obstacles, per stream; capped: its hit on each capped obstacle
            full, capped = np.asarray(full), ps._kept(counts, np.isfinite(capped))
            se = math.sqrt((np.var(full) + np.var(capped)) / n)
            assert np.mean(capped) > 0.2 and abs(np.mean(full) - np.mean(capped)) < 4 * se

        grains = [ps.sample_boolean_annulus(d, gamma, law, t_lo, [t_hi], [rng])[:3] for rng in streams(81, d, n)]
        *capped, counts = ps.sample_cap_annuli(ps.Obstacles(d, gamma, law), t_lo, [t_hi] * n, streams(82, d, n))
        agree([np.isfinite(vis.grain_hits_from_base(ray, *g)).sum() for g in grains], vis._grain_hits(*capped), counts)
        planes = [ps.sample_hyperplane_annulus(d, gamma, t_lo, [t_hi], [rng])[:2] for rng in streams(83, d, n)]
        *capped, counts = ps.sample_cap_annuli(ps.Obstacles(d, gamma), t_lo, [t_hi] * n, streams(84, d, n))
        agree([np.isfinite(vis.plane_hits_from_base(ray, *p)).sum() for p in planes], vis._plane_hits(*capped), counts)

    def test_capped_kernels_are_exact_deep_out(self, rng):
        # obstacles out to distance 30 at versine w from the ray, where cos theta and tanh t round to 1
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def crossing(t, w):
            rho = mp.tanh(t) / (1 - mp.mpf(w))
            return mp.atanh(rho) if rho < 1 else math.inf

        def hit(t, w, r):
            t, w, r = mp.mpf(t), mp.mpf(w), mp.mpf(r)
            c = mp.sqrt(1 + mp.sinh(t) ** 2 * w * (2 - w))
            return max(mp.atanh(mp.tanh(t) * (1 - w)) - mp.acosh(mp.cosh(r) / c), 0) if c <= mp.cosh(r) else math.inf

        n = 300
        dist, rad = rng.uniform(0.6, 30.0, n), rng.uniform(0.1, 0.5, n)
        plane_vers = ps.plane_cap_gap(dist) * rng.uniform(0.0, 1.2, n)
        grain_vers = np.array([ps.grain_cap_gap(0.5, t) for t in dist]) * rng.uniform(0.0, 1.2, n)
        planes = vis._plane_hits(dist, plane_vers)
        grains = vis._grain_hits(dist, grain_vers, rad)
        for got, want in ((planes, [crossing(t, w) for t, w in zip(dist, plane_vers)]),
                          (grains, [hit(t, w, r) for t, w, r in zip(dist, grain_vers, rad)])):
            want = np.array(want, dtype=float)
            assert np.isfinite(got[dist > 20.0]).any() and np.isinf(got).any()
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            np.testing.assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)], rtol=1e-9)


def union_share(d, gap, phi):
    """Share of the directions within versine gap of one of two rays at angle phi, at d = 2 or 3."""
    theta = math.acos(1.0 - gap)
    if d == 2:
        return (2.0 * theta + min(phi, 2.0 * theta)) / (2.0 * math.pi)

    def lens(alpha):  # polar angle alpha about the first ray, times the azimuths within theta of the second
        c = (math.cos(theta) - math.cos(alpha) * math.cos(phi)) / (math.sin(alpha) * math.sin(phi))
        return math.sin(alpha) * 2.0 * math.acos(min(1.0, max(-1.0, c)))

    return (4.0 * math.pi * gap - quad(lens, 0.0, theta, epsabs=1e-13)[0]) / (4.0 * math.pi)


class TestCapUnion:
    """The cap-union samplers draw each obstacle of the union of the rays' caps exactly once."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("law", [cf.FixedRadius(0.5), None], ids=["grains", "planes"])
    def test_two_overlapping_caps(self, d, law, monkeypatch):
        gamma, t_lo, t_hi, n = 3.0, 2.0, 2.5, 3000
        gap = ps.grain_cap_gap(0.5, t_lo) if law else ps.plane_cap_gap(t_lo)
        theta = math.acos(1.0 - gap)  # the rays are a cap radius apart, so the caps overlap
        rays = np.zeros((2, d))
        rays[0, 0], rays[1, :2] = 1.0, (math.cos(theta), math.sin(theta))
        seen = []  # (directions, owners, rays, gap, outside) of each call
        inner = ps._outside_earlier_caps

        def spy(*args):
            seen.append((*args, inner(*args)))
            return seen[-1][-1]

        monkeypatch.setattr(ps, "_outside_earlier_caps", spy)
        rngs = [stream(85, d, i) for i in range(n)]
        out = ps.sample_cap_union(ps.Obstacles(d, gamma, law), t_lo, [t_hi] * n, rngs, [rays] * n)
        dirs, counts = out[1], out[-1]
        if law:
            annulus = gamma * cf.omega(d) * (cf.power_integral(d - 1, t_hi) - cf.power_integral(d - 1, t_lo))
        else:
            annulus = gamma * (ps.plane_measure(d, t_hi) - ps.plane_measure(d, t_lo))
        in_caps = 0.5 * np.sum((dirs[:, None, :] - rays) ** 2, axis=2) < gap
        assert in_caps.any(axis=1).all()
        # the union's obstacles, and those of the overlap, each drawn once: Poisson counts of the exact means
        union = union_share(d, gap, theta)
        overlap = ps._kept(counts, in_caps.all(axis=1))
        for got, share in ((counts, union), (overlap, 2.0 * sphere_cap_share(d, gap) - union)):
            mean = annulus * share
            assert mean > 0.5 and abs(got.mean() - mean) < 4.0 * math.sqrt(mean / n)
        # a proposal is kept exactly when its own cap is the first that holds it, and only those are returned
        for proposals, owners, axes, g, outside in seen:
            first = np.argmax(0.5 * np.sum((proposals[:, None, :] - axes) ** 2, axis=2) < g, axis=1)
            assert np.array_equal(outside, first == owners)
        kept = {tuple(row) for proposals, *_, outside in seen for row in proposals[outside]}
        assert all(tuple(row) in kept for row in dirs)


def streams(seed, d, n):
    return [stream(seed, d, i) for i in range(n)]


# Every sampler of a round of replications, as (generators, t_hi per generator) -> its arrays and counts.
LAW, T_LO = cf.UniformRadius(0.2, 0.8), 0.5
RAYS = ps.unit_vectors(4, [stream(27)], [3])  # the live rays of every generator of the cap unions
GRAINS, PLANES = ps.Obstacles(4, 1.0, LAW), ps.Obstacles(4, 3.0)
ROUND_SAMPLERS = {
    "boolean-annulus": lambda rngs, t_hi: ps.sample_boolean_annulus(4, 1.0, LAW, T_LO, t_hi, rngs),
    "boolean-annulus-undeleted": lambda rngs, t_hi: ps.sample_boolean_annulus(4, 1.0, LAW, T_LO, t_hi, rngs, False),
    "boolean-cap": lambda rngs, t_hi: ps.sample_cap_annuli(GRAINS, T_LO, t_hi, rngs),
    "hyperplane-annulus": lambda rngs, t_hi: ps.sample_hyperplane_annulus(4, 2.0, T_LO, t_hi, rngs),
    "hyperplane-cap": lambda rngs, t_hi: ps.sample_cap_annuli(PLANES, T_LO, t_hi, rngs),
    "boolean-cap-union": lambda rngs, t_hi: ps.sample_cap_union(GRAINS, T_LO, t_hi, rngs, [RAYS] * 8),
    "hyperplane-cap-union": lambda rngs, t_hi: ps.sample_cap_union(PLANES, T_LO, t_hi, rngs, [RAYS] * 8),
    "planes-annulus": lambda rngs, t_hi: ps.sample_annulus(PLANES, T_LO, t_hi, rngs),
}


@pytest.mark.parametrize("sampler", ROUND_SAMPLERS.values(), ids=ROUND_SAMPLERS.keys())
def test_round_layout(sampler):
    # a round returns each generator's lone draws, flat and concatenated in generator order, then a count per
    # generator. The first annulus is 1e-9 wide, so its generator draws no obstacles.
    t_hi = [T_LO + 1e-9] + [T_LO + 0.1 * i for i in range(1, 8)]
    *arrays, counts = sampler([stream(25, i) for i in range(8)], t_hi)
    assert 0 in counts and counts.max() > 1 and all(len(a) == counts.sum() for a in arrays)
    for i, rows in enumerate(zip(*(np.split(a, np.cumsum(counts)[:-1]) for a in arrays))):
        *alone, count = sampler([stream(25, i)], t_hi[i : i + 1])
        assert count.tolist() == [counts[i]] and all(np.array_equal(r, a) for r, a in zip(rows, alone))


class TestObstacles:
    """Obstacles describes each kind once: its profile, edge margin and direction caps."""

    @pytest.mark.parametrize("law", [cf.FixedRadius(0.5), cf.UniformRadius(0.1, 0.6), None],
                             ids=["fixed", "uniform", "planes"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_profile_margin_and_caps(self, d, law):
        gamma = 1.7
        obs = ps.Obstacles(d, gamma, law)
        assert obs.margin == (law.max_radius if law else 0.0)
        for t in (1e-3, 0.05, 0.7, 3.0, 9.0):
            within = ps._means(obs, 1.0, ps._profile_at(d - 1, obs.sign, 0.0, [t]))[0]  # expected obstacles within t
            assert within == pytest.approx(gamma * (cf.ball_volume(d, t) if law else ps.plane_measure(d, t)), rel=1e-13)
            gap = ps.grain_cap_gap(law.max_radius, t) if law else ps.plane_cap_gap(t)
            assert obs.gap(t) == gap and obs.share(t) == ps.cap_share(d, gap)

    @pytest.mark.parametrize("drop_covering", [True, False])
    def test_named_annuli_are_the_generic_sampler(self, drop_covering):
        t_hi = [T_LO + 0.3 * i for i in range(1, 6)]
        for named, generic in (
            (ps.sample_boolean_annulus(3, 2.0, LAW, T_LO, t_hi, streams(28, 3, 5), drop_covering),
             ps.sample_annulus(ps.Obstacles(3, 2.0, LAW), T_LO, t_hi, streams(28, 3, 5), drop_covering)),
            (ps.sample_hyperplane_annulus(3, 2.0, T_LO, t_hi, streams(29, 3, 5)),
             ps.sample_annulus(ps.Obstacles(3, 2.0), T_LO, t_hi, streams(29, 3, 5))),
        ):
            assert len(named) == len(generic) and named[-1].sum() > 5
            assert all(np.array_equal(a, b) for a, b in zip(named, generic))
