import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import time
from functools import lru_cache, partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from hypervis import acceptance
from hypervis import closedform as cf
from hypervis import fanout, intersect
from hypervis import procsim as ps
from hypervis import visibility as vis
from hypervis.procsim import BooleanModelSample, HyperplaneSample
from hypervis.rng import stream

import hypgeom as hg
from conftest import STREAM_DERIVATIONS, _comparable, assert_same_under_every_derivation, random_point, record_and_values
from oracles import (
    BallGrain,
    GeodesicRay,
    Hyperplane,
    random_direction,
    ray_grain_hit,
    ray_hyperplane_hit,
    segment_crossings_per_replication,
    visibility_range,
    visible_volume_once,
)


def brute_force_hits(rays, grains, t_pad=0.05, grid_n=800, iters=60):
    """Grid-plus-bisection first-hit oracle, vectorized over (ray, grain) pairs.

    Evaluates the distance to the grain center along each ray directly from
    the geodesic parametrization, brackets the first sign change of
    dist - radius, and bisects. Returns inf where the grid sees no hit.
    """
    out = np.full(len(rays), np.inf)
    for idx, (ray, grain) in enumerate(zip(rays, grains)):
        d_c = float(hg.dist(ray.origin, grain.center))
        if d_c <= grain.radius:
            out[idx] = 0.0
            continue
        lo_t = max(0.0, d_c - grain.radius - t_pad)
        hi_t = d_c + grain.radius + t_pad
        ts = np.linspace(lo_t, hi_t, grid_n)
        pts = np.cosh(ts)[:, None] * ray.origin + np.sinh(ts)[:, None] * ray.direction
        g = np.arccosh(np.maximum(1.0, -(pts @ (np.diag([-1.0] + [1.0] * (len(ray.origin) - 1)) @ grain.center)))) - grain.radius
        inside = np.flatnonzero(g <= 0)
        if len(inside) == 0:
            continue
        i = inside[0]
        if i == 0:
            out[idx] = ts[0]
            continue
        lo, hi = ts[i - 1], ts[i]
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            pt = math.cosh(mid) * ray.origin + math.sinh(mid) * ray.direction
            if hg.dist(pt, grain.center) - grain.radius <= 0:
                hi = mid
            else:
                lo = mid
        out[idx] = 0.5 * (lo + hi)
    return out


class TestRayGrainHit:
    def test_head_on(self):
        p = hg.base_point(2)
        u = np.array([0.0, 1.0, 0.0])
        grain = BallGrain(hg.exp_map(p, u, 2.0), 0.5)
        assert ray_grain_hit(GeodesicRay(p, u), grain) == pytest.approx(1.5, abs=1e-12)

    def test_origin_covered(self):
        p = hg.base_point(2)
        grain = BallGrain(hg.exp_map(p, np.array([0.0, 1.0, 0.0]), 0.3), 0.5)
        assert ray_grain_hit(GeodesicRay(p, np.array([0.0, 0.0, 1.0])), grain) == 0.0

    def test_perpendicular_miss(self):
        p = hg.base_point(2)
        grain = BallGrain(hg.exp_map(p, np.array([0.0, 1.0, 0.0]), 1.0), 0.9)
        assert ray_grain_hit(GeodesicRay(p, np.array([0.0, 0.0, 1.0])), grain) is None

    def test_boundary_property(self, rng):
        hits = 0
        while hits < 200:
            p = random_point(2, rng)
            u = random_direction(p, rng)
            center = random_point(2, rng, r_max=4.0)
            radius = rng.uniform(0.1, 1.0)
            if hg.dist(p, center) <= radius:
                continue
            t = ray_grain_hit(GeodesicRay(p, u), BallGrain(center, radius))
            if t is None or t == 0.0:
                continue
            hits += 1
            point = hg.exp_map(p, u, t)
            assert hg.dist(point, center) == pytest.approx(radius, abs=1e-8)

    def test_against_brute_force(self):
        rng = stream(42, 1)
        n = 10_000
        rays, grains, closed = [], [], []
        while len(rays) < n:
            p = random_point(3, rng, r_max=1.5)
            u = random_direction(p, rng)
            center = random_point(3, rng, r_max=4.0)
            radius = rng.uniform(0.1, 1.2)
            ray = GeodesicRay(p, u)
            rays.append(ray)
            grains.append(BallGrain(center, radius))
            t = ray_grain_hit(ray, BallGrain(center, radius))
            closed.append(np.inf if t is None else t)
        closed = np.array(closed)
        oracle = brute_force_hits(rays, grains)
        both_hit = np.isfinite(closed) & np.isfinite(oracle)
        assert np.mean(np.isfinite(closed)) > 0.05  # the comparison is not vacuous
        assert np.array_equal(np.isfinite(closed), np.isfinite(oracle))
        np.testing.assert_allclose(closed[both_hit], oracle[both_hit], atol=1e-8)

    def test_vector_kernel_matches_scalar(self, rng):
        p = hg.base_point(2)
        dirs = ps.unit_vectors(2, [rng], [40])
        g_dist = rng.uniform(0.5, 4.0, size=60)
        g_dir = ps.unit_vectors(2, [rng], [60])
        g_rad = rng.uniform(0.05, 0.45, size=60)
        matrix = vis.grain_hits_from_base(dirs, g_dist, g_dir, g_rad)
        centers = ps.points_from_polar(g_dist, g_dir)
        for i in (0, 7, 23):
            for j in (0, 11, 59):
                ray = GeodesicRay(p, np.concatenate([[0.0], dirs[i]]))
                t = ray_grain_hit(ray, BallGrain(centers[j], float(g_rad[j])))
                expected = np.inf if t is None else t
                assert matrix[i, j] == pytest.approx(expected, abs=1e-10)


class TestRayHyperplaneHit:
    def test_through_origin(self):
        p = hg.base_point(2)
        plane = Hyperplane(np.array([0.0, 1.0, 0.0]))
        assert ray_hyperplane_hit(GeodesicRay(p, np.array([0.0, 1.0, 0.0])), plane) == 0.0

    def test_offset_along_ray(self, rng):
        for d in (2, 3):
            p = hg.base_point(d)
            w = ps.unit_vectors(d, [rng], [1])[0]
            u = np.concatenate([[0.0], w])
            for x in (0.4, 1.7):
                n = ps.normals_from_polar(np.array([x]), w[None, :])[0]
                t = ray_hyperplane_hit(GeodesicRay(p, u), Hyperplane(n))
                assert t == pytest.approx(x, abs=1e-12)

    def test_parallel_escape(self):
        p = hg.base_point(2)
        w = np.array([1.0, 0.0])
        n = ps.normals_from_polar(np.array([0.5]), w[None, :])[0]
        # ray pointing away from the plane never reaches it
        assert ray_hyperplane_hit(GeodesicRay(p, np.array([0.0, -1.0, 0.0])), Hyperplane(n)) is None

    def test_crossing_point_is_on_plane(self, rng):
        count = 0
        while count < 100:
            x = rng.uniform(0.1, 2.0)
            w = ps.unit_vectors(2, [rng], [1])[0]
            n = ps.normals_from_polar(np.array([x]), w[None, :])[0]
            u = np.concatenate([[0.0], ps.unit_vectors(2, [rng], [1])[0]])
            t = ray_hyperplane_hit(GeodesicRay(hg.base_point(2), u), Hyperplane(n))
            if t is None:
                continue
            count += 1
            point = hg.exp_map(hg.base_point(2), u, t)
            assert abs(hg.minkowski_dot(point, n)) < 1e-9
            assert t >= x - 1e-9  # cannot cross before the plane's distance


def dense_grain_hits(dirs, g_dist, g_dir, g_rad):
    """Reference: the hit formula evaluated on every ray x grain pair, at the versine w = 1 - cos theta."""
    vers = 1.0 - np.clip(dirs @ g_dir.T, -1.0, 1.0)
    sinh_d = np.sinh(g_dist)
    c = np.sqrt(1.0 + sinh_d**2 * (vers * (2.0 - vers)))
    cosh_r = np.cosh(g_rad)
    hit = (vers < 1.0) & (c <= cosh_r)
    a_plus_b = np.cosh(g_dist) + sinh_d * (1.0 - vers)
    a_minus_b = np.exp(-g_dist) + sinh_d * vers
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = 0.5 * np.log(a_plus_b / a_minus_b)
        t = t0 - np.arccosh(np.maximum(1.0, cosh_r / c))
    return np.where(hit, np.maximum(t, 0.0), np.inf)


def dense_plane_hits(dirs, p_dist, p_dir):
    """Reference: the crossing formula evaluated on every ray x plane pair, at the versine w = 1 - cos theta:
    with g = 1 - tanh t, the ray crosses at log((2 - g - w) / (g - w)) / 2 if w < g."""
    vers = 1.0 - np.clip(dirs @ p_dir.T, -1.0, 1.0)
    g = np.asarray(ps.plane_cap_gap(p_dist))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = 0.5 * np.log((2.0 - g - vers) / (g - vers))
    return np.where(vers < g, t, np.inf)


def _at_angle(u, theta, rng):
    """Unit vector at angle theta from the unit vector u."""
    w = rng.standard_normal(len(u))
    w -= (w @ u) * u
    return math.cos(theta) * u + math.sin(theta) * w / np.linalg.norm(w)


class TestSparseKernels:
    """The sparse kernels return exactly the dense formulas' matrices, inf included."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grains_on_cone_boundary(self, d, rng):
        dirs = ps.unit_vectors(d, [rng], [30])
        n = 400
        g_rad = rng.uniform(0.0, 1.0, n) * np.repeat([1e-7, 1e-4, 1e-2, 1.0], n // 4)
        # center distances from just above the radius to far away
        g_dist = g_rad * (1.0 + rng.exponential(1.0, n) * rng.choice([1e-12, 1e-6, 1.0, 10.0], n))
        # each grain sits at relative distance 1e-16..1e-6 inside or outside the cone of one ray
        rel = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16, -6, n)
        theta = np.arcsin(np.sinh(g_rad) / np.sinh(g_dist)) * (1.0 + rel)
        g_dir = np.array([_at_angle(dirs[j % 30], theta[j], rng) for j in range(n)])
        expected = dense_grain_hits(dirs, g_dist, g_dir, g_rad)
        assert np.array_equal(vis.grain_hits_from_base(dirs, g_dist, g_dir, g_rad), expected)
        cone = expected[np.arange(n) % 30, np.arange(n)]
        assert np.isfinite(cone).any() and np.isinf(cone).any()  # both sides of the boundary occur

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grains_random(self, d, rng):
        for n_rays, n_grains in ((200, 300), (1, 50), (7, 1), (5, 0)):
            dirs = ps.unit_vectors(d, [rng], [n_rays])
            g_rad = rng.uniform(0.05, 0.6, n_grains)
            g_dist = g_rad + rng.exponential(1.5, n_grains)
            g_dir = ps.unit_vectors(d, [rng], [n_grains]) if n_grains else np.empty((0, d))
            got = vis.grain_hits_from_base(dirs, g_dist, g_dir, g_rad)
            assert got.shape == (n_rays, n_grains)
            assert np.array_equal(got, dense_grain_hits(dirs, g_dist, g_dir, g_rad))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grain_straight_ahead_cosine_above_one(self, d, rng):
        # grains centered on the rays themselves: dirs @ dirs.T rounds above 1 on some diagonals
        dirs = ps.unit_vectors(d, [rng], [200])
        cos = np.einsum("ij,ij->i", dirs, dirs)
        assert (cos > 1.0).any()
        g_dist, g_rad = rng.uniform(0.6, 3.0, 200), np.full(200, 0.5)
        got = vis.grain_hits_from_base(dirs, g_dist, dirs, g_rad)
        assert np.array_equal(got, dense_grain_hits(dirs, g_dist, dirs, g_rad))
        np.testing.assert_allclose(np.diag(got), g_dist - g_rad, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_planes(self, d, rng):
        dirs = ps.unit_vectors(d, [rng], [200])
        # a plane of signed offset x < 0 and direction u is the plane at distance -x in direction -u
        x, u = rng.uniform(-3.0, 3.0, 300), ps.unit_vectors(d, [rng], [300])
        assert (x < 0).any() and (x > 0).any()
        signed = (np.abs(x), np.sign(x)[:, None] * u)
        one_sided = (rng.exponential(1.0, 300), ps.unit_vectors(d, [rng], [300]))
        # cos theta = 0 exactly: ray 0 along e_1, planes in directions e_2 and -e_2, one through the base point
        dirs[0] = np.eye(d)[0]
        flat = (np.array([0.3, 0.3, 0.0]), np.eye(d)[[1, 1, 1]] * np.array([[1.0], [-1.0], [1.0]]))
        assert (dirs[:1] @ flat[1].T == 0.0).all()
        for p_dist, p_dir in (signed, one_sided, flat, (np.empty(0), np.empty((0, d)))):
            for rays in (dirs, dirs[:1]):
                got = vis.plane_hits_from_base(rays, p_dist, p_dir)
                assert got.shape == (len(rays), len(p_dist))
                assert np.array_equal(got, dense_plane_hits(rays, p_dist, p_dir))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_planes_on_cap_boundary(self, d, rng):
        # each plane's direction lies at relative distance 1e-16..1e-6 inside or outside the cap cos theta > tanh t
        # of one ray, t = 0 (the half-sphere) included
        dirs = ps.unit_vectors(d, [rng], [30])
        n = 400
        p_dist = rng.uniform(0.0, 1.0, n) * np.repeat([0.0, 1e-7, 1e-3, 1.0, 6.0], n // 5)
        rel = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16, -6, n)
        theta = np.arccos(np.tanh(p_dist)) * (1.0 + rel)
        p_dir = np.array([_at_angle(dirs[j % 30], theta[j], rng) for j in range(n)])
        expected = dense_plane_hits(dirs, p_dist, p_dir)
        assert np.array_equal(vis.plane_hits_from_base(dirs, p_dist, p_dir), expected)
        cap = expected[np.arange(n) % 30, np.arange(n)]
        for half_sphere in (p_dist == 0.0, p_dist > 0.0):  # both sides of the boundary occur
            assert np.isfinite(cap[half_sphere]).any() and np.isinf(cap[half_sphere]).any()


def _single_grain_model(d_c=2.0, radius=0.5, window=4.0):
    p = hg.base_point(2)
    center = hg.exp_map(p, np.array([0.0, 1.0, 0.0]), d_c)
    return BooleanModelSample(
        d=2,
        centers=center[None, :],
        radii=np.array([radius]),
        window_radius=window + radius,
        max_grain_radius=radius,
        conditioned=True,
    )


class TestVisibilityRange:
    def test_empty_model_censored(self):
        model = BooleanModelSample(
            d=2, centers=np.empty((0, 3)), radii=np.empty(0), window_radius=5.5, max_grain_radius=0.5, conditioned=True
        )
        out = visibility_range(model, np.array([0.0, 1.0, 0.0]), 5.0)
        assert out.censored and out.value == 5.0

    def test_single_grain_ahead(self):
        model = _single_grain_model()
        out = visibility_range(model, np.array([0.0, 1.0, 0.0]), 4.0)
        assert not out.censored
        assert out.value == pytest.approx(1.5, abs=1e-10)

    def test_monotone_under_added_grain(self, rng):
        model = _single_grain_model()
        more = BooleanModelSample(
            d=2,
            centers=np.vstack([model.centers, hg.exp_map(hg.base_point(2), np.array([0.0, 1.0, 0.0]), 1.2)[None, :]]),
            radii=np.array([0.5, 0.4]),
            window_radius=model.window_radius,
            max_grain_radius=0.5,
            conditioned=True,
        )
        for _ in range(20):
            u = np.concatenate([[0.0], ps.unit_vectors(2, [rng], [1])[0]])
            assert visibility_range(more, u, 4.0).value <= visibility_range(model, u, 4.0).value + 1e-12

    def test_window_guard(self):
        model = _single_grain_model(window=4.0)
        with pytest.raises(ValueError, match="safe window"):
            visibility_range(model, np.array([0.0, 1.0, 0.0]), 4.7)

    def test_requires_conditioned(self):
        model = _single_grain_model()
        model.conditioned = False
        with pytest.raises(ValueError, match="conditioned"):
            visibility_range(model, np.array([0.0, 1.0, 0.0]), 3.0)


class TestVisibleVolumeOnce:
    def test_empty_model_gives_ball(self, rng):
        model = HyperplaneSample(d=2, normals=np.empty((0, 3)), window_radius=5.0)
        value = visible_volume_once(model, 64, rng, truncate_at=3.0)
        assert value == pytest.approx(float(cf.ball_volume(2, 3.0)), rel=1e-12)

    def test_single_grain_angular_quadrature(self):
        # oracle: integrate the exact per-direction profile over the angle
        model = _single_grain_model(d_c=2.0, radius=0.8, window=3.0)
        truncate = 3.0
        p = hg.base_point(2)

        def range_at(phi):
            u = np.array([0.0, math.cos(phi), math.sin(phi)])
            t = ray_grain_hit(GeodesicRay(p, u), BallGrain(model.centers[0], 0.8))
            return min(truncate, truncate if t is None else t)

        oracle, _ = quad(lambda phi: float(cf.sinh_integral(2, range_at(phi))), 0, 2 * math.pi, limit=400)
        reps = np.array([visible_volume_once(model, 400, stream(21, i), truncate) for i in range(60)])
        stderr = reps.std(ddof=1) / math.sqrt(len(reps))
        assert abs(reps.mean() - oracle) < 4 * stderr

    def test_two_batches_consistent(self):
        model = _single_grain_model(d_c=1.5, radius=0.6, window=3.0)
        a = np.array([visible_volume_once(model, 200, stream(22, i), 2.5) for i in range(40)])
        b = np.array([visible_volume_once(model, 200, stream(23, i), 2.5) for i in range(40)])
        stderr = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) < 4 * stderr

    def test_truncation_monotone_same_rays(self):
        model = _single_grain_model(d_c=1.5, radius=0.6, window=3.0)
        v1 = visible_volume_once(model, 300, stream(24, 0), 1.5)
        v2 = visible_volume_once(model, 300, stream(24, 0), 2.5)
        assert v1 <= v2


class TestRangeSampling:
    def test_streaming_matches_windowed(self):
        # same distribution from the radial sweep and from materialized windows
        d, gamma, law, cutoff = 2, 1.0, cf.FixedRadius(0.5), 2.5
        n = 3000
        streamed, _ = vis.sample_visibility_ranges(d, gamma, law, n, cutoff, seed=31)
        windowed = np.empty(n)
        for i in range(n):
            rng = stream(32, i)
            model = ps.sample_boolean(d, gamma, law, cutoff, rng)
            u = ps.unit_vectors(d, [rng], [1])[0]
            windowed[i] = visibility_range(model, np.concatenate([[0.0], u]), cutoff).value
        assert ks_2samp(streamed, windowed).pvalue > 0.01

    def test_exponential_law_small(self):
        from hypervis.harness import ks_exponential

        d, gamma, law = 2, 1.2, cf.UniformRadius(0.1, 0.6)
        rate = gamma * cf.grain_moments(d, law).v_dm1_star
        values, censored = vis.sample_visibility_ranges(d, gamma, law, 3000, 10.0, seed=33)
        assert ks_exponential(values[~censored], rate).passed

    def test_zero_cell_exponential_law_small(self):
        from hypervis.harness import ks_exponential

        values, censored = vis.sample_zero_cell_ranges(2, 2.0, 3000, 10.0, seed=36)
        assert ks_exponential(values[~censored], 4.0 / math.pi).passed

    def test_zero_cell_ranges_d3(self):
        from hypervis.harness import ks_exponential

        rate = cf.zero_cell_rate(3, 1.5)
        values, censored = vis.sample_zero_cell_ranges(3, 1.5, 2000, 8.0, seed=37)
        assert ks_exponential(values[~censored], rate).passed


class TestEstimators:
    def test_refusal_below_threshold(self):
        law = cf.FixedRadius(0.5)
        with pytest.raises(ValueError, match="finiteness needs gamma > 0.959517"):
            vis.estimate_visible_volume(2, 0.5, law, 10, 10, None, 8.0, seed=0)

    def test_truncated_matches_closed_form_subcritical(self):
        # below the threshold only the truncated mean is finite
        law = cf.FixedRadius(0.5)
        gamma = 0.7
        rec = vis.estimate_visible_volume(2, gamma, law, 400, 100, 3.0, 4.0, seed=38)
        assert rec.closed_form == pytest.approx(cf.truncated_visible_volume(2, gamma, law, 3.0), rel=1e-9)
        assert abs(rec.z_score) < 3.0

    def test_tiny_intensity_gives_ball_volume(self):
        law = cf.FixedRadius(0.5)
        rec = vis.estimate_visible_volume(2, 1e-7, law, 30, 50, 2.0, 2.5, seed=39)
        assert rec.estimate == pytest.approx(float(cf.ball_volume(2, 2.0)), rel=1e-5)
        assert rec.censored_fraction > 0.999

    def test_visvol_quick(self):
        law = cf.FixedRadius(0.5)
        rec = vis.estimate_visible_volume(2, 2.5, law, 400, 100, None, 10.0, seed=40)
        assert abs(rec.z_score) < 3.5
        assert rec.quantity == "visvol"
        assert rec.z_score == (rec.estimate - rec.closed_form) / rec.stderr

    def test_zero_cell_quick(self):
        rec = vis.estimate_zero_cell_volume(2, 3.0, 400, 100, 10.0, seed=41)
        assert abs(rec.z_score) < 3.5

    def test_zero_cell_compares_with_the_mean_within_its_cutoff(self):
        rec = vis.estimate_zero_cell_volume(2, 2.0, 20, 10, 3.0, seed=41)
        assert rec.closed_form == cf.truncated_visible_volume(2, 2.0, None, 3.0)
        assert rec.closed_form < cf.zero_cell_mean_volume(2, 2.0)
        assert rec.z_score == (rec.estimate - rec.closed_form) / rec.stderr

    def test_zero_cell_large_intensity(self):
        rec = vis.estimate_zero_cell_volume(2, 50.0, 300, 80, 6.0, seed=42)
        assert rec.estimate < 0.01
        assert abs(rec.z_score) < 3.5

    def test_zero_cell_subcritical_refused(self):
        with pytest.raises(ValueError, match="infinite"):
            vis.estimate_zero_cell_volume(2, 1.0, 10, 10, 6.0, seed=0)

    @pytest.mark.parametrize("n_reps", [0, 1])
    def test_one_replication_refused(self, n_reps):
        law = cf.FixedRadius(0.5)
        for call in (
            lambda: vis.estimate_visible_volume(2, 2.5, law, n_reps, 10, None, 4.0, seed=0),
            lambda: vis.estimate_visible_volume(2, 1.0, law, n_reps, 10, 2.0, 4.0, seed=0),
            lambda: vis.estimate_zero_cell_volume(2, 3.0, n_reps, 2, 3.0, seed=0),
            lambda: vis.estimate_segment_crossings(2, 1.0, 1.0, n_reps, seed=0),
        ):
            with pytest.raises(ValueError, match="n_reps >= 2"):
                call()

    def test_segment_crossings_quick(self):
        rec = vis.estimate_segment_crossings(2, 1.0, 1.0, 2000, seed=43)
        assert rec.closed_form == pytest.approx(2 / math.pi, rel=1e-12)
        assert abs(rec.z_score) < 3.5

    def test_segment_crossings_draw_once_per_round(self, monkeypatch):
        # a round draws the planes of all its replications on [0, length] in one annulus call
        calls = []

        def counted(d, gamma, t_lo, t_hi, rngs, _fn=ps.sample_hyperplane_annulus):
            calls.append((t_lo, list(t_hi), len(rngs)))
            return _fn(d, gamma, t_lo, t_hi, rngs)

        monkeypatch.setattr(ps, "sample_hyperplane_annulus", counted)
        size = fanout.ROUND_REPS
        vis.estimate_segment_crossings(2, 1.0, 0.7, 2 * size + 3, seed=5)
        assert calls == [(0.0, [0.7] * n, n) for n in (size, size, 3)]

    @pytest.mark.parametrize("d, gamma", [(2, 1.0), (3, 1.0), (2, 0.05)], ids=["d2", "d3", "d2-sparse"])
    def test_segment_crossing_rounds_match_per_replication(self, d, gamma, monkeypatch):
        length, seed, size = 1.0, 62, fanout.ROUND_REPS
        n_max = 2 * size + 1
        reference = segment_crossings_per_replication(d, gamma, length, n_max, seed)
        if gamma < 0.1:  # some realizations hold no plane or a single one
            assert {0, 1} <= {ps.sample_hyperplanes(d, gamma, length, stream(seed, i)).n_planes for i in range(n_max)}
        for n_reps in (2, size - 1, size, size + 1, n_max):
            call = partial(vis.estimate_segment_crossings, d, gamma, length, n_reps, seed)
            record, values = record_and_values(vis, call, monkeypatch)
            assert np.array_equal(values, reference[:n_reps])
            expected = vis.make_record("segment_crossings", d, gamma, None, reference[:n_reps], record.closed_form, seed, 0.0, 1)
            assert dataclasses.replace(record, runtime_ms=0.0) == dataclasses.replace(expected, runtime_ms=0.0)


# Outputs of the dense sweep that ran every ray against every block, at fixed seeds.
# Skipping rays that a block cannot shorten changes which rays enter the ray x obstacle
# product, so BLAS may round cos(theta) differently by an ulp; a grazing hit magnifies that
# through arccosh, hence the relative tolerance. The censored counts must match exactly.
# The two d = 2 visvol runs reach the depth from which blocks draw only the union of the live
# rays' caps, and were pinned again once that changed their draws (the others never reach it).
PINNED_ESTIMATES = {
    "visvol-d2": (vis.estimate_visible_volume, (2, 2.5, cf.FixedRadius(0.5), 40, 100, None, 4.0, 7),
                  1.160498798250675, 0.2387549282343776, 0),
    "visvol-d2-uniform-truncated": (vis.estimate_visible_volume,
                                    (2, 1.2, cf.UniformRadius(0.1, 0.6), 40, 100, 3.0, 4.0, 8),
                                    9.915268406077889, 0.8109589446364148, 135),
    "visvol-d3": (vis.estimate_visible_volume, (3, 4.0, cf.FixedRadius(0.5), 20, 50, 1.5, 1.5, 9),
                  0.7567249314277686, 0.17731392160528853, 7),
    "zero-cell-d2": (vis.estimate_zero_cell_volume, (2, 3.0, 40, 100, 3.0, 10),
                     2.4065749186728747, 0.560475819826022, 15),
    "zero-cell-d3": (vis.estimate_zero_cell_volume, (3, 6.0, 20, 50, 1.0, 11),
                     0.4259809140791303, 0.0846645065804807, 26),
}

# Outputs of the capped single-ray sweep at fixed seeds, pinned after its two-sample KS tests
# against the uncapped reference (TestRounds) and the band oracle (TestCappedSweep) passed, and
# pinned again once a single-ray replication stopped drawing the direction its sweep never reads.
PINNED_RANGES = {
    "boolean-d2": (vis.sample_visibility_ranges, (2, 1.5, cf.FixedRadius(0.5), 200, 2.0, 12), 136.23008537630324, 11),
    "boolean-d3": (vis.sample_visibility_ranges, (3, 4.0, cf.FixedRadius(0.5), 100, 1.0, 13), 24.757038780411083, 2),
    "zero-cell-d2": (vis.sample_zero_cell_ranges, (2, 2.0, 200, 2.0, 14), 140.45256682770076, 19),
    "zero-cell-d3": (vis.sample_zero_cell_ranges, (3, 6.0, 100, 1.0, 15), 30.254976116841494, 6),
}


class TestSweepPinned:
    @pytest.mark.parametrize("name", sorted(PINNED_ESTIMATES))
    def test_estimate(self, name):
        fn, args, estimate, stderr, n_censored = PINNED_ESTIMATES[name]
        rec = fn(*args)
        assert rec.estimate == pytest.approx(estimate, rel=1e-9)
        assert rec.stderr == pytest.approx(stderr, rel=1e-9)
        assert round(rec.censored_fraction * rec.n_reps * rec.n_rays) == n_censored

    @pytest.mark.parametrize("name", sorted(PINNED_RANGES))
    def test_ranges(self, name):
        fn, args, total, n_censored = PINNED_RANGES[name]
        values, censored = fn(*args)
        assert float(values.sum()) == pytest.approx(total, rel=1e-9)
        assert int(censored.sum()) == n_censored

    @pytest.mark.parametrize("name", sorted(PINNED_ESTIMATES) + [f"ranges-{n}" for n in sorted(PINNED_RANGES)])
    def test_independent_of_stream_derivation(self, name, monkeypatch):
        fn, args, *_ = PINNED_ESTIMATES[name] if name in PINNED_ESTIMATES else PINNED_RANGES[name[len("ranges-"):]]
        assert_same_under_every_derivation(partial(fn, *args), monkeypatch)


# Reference: the sweep one replication at a time, with the annulus samplers and the dense
# kernels it used before replication rounds. Replication i draws its rays and then, block
# by block, its obstacles (count, distances, directions, radii) from stream(seed, i). Once the
# caps of all its rays hold less than the annulus, a block draws only the union of its live
# rays' caps, in the order of procsim.sample_cap_union.


def _ref_unit_vectors(d, rng, size):
    g = rng.standard_normal((size, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _ref_profile_annulus(n, sign, t_lo, t_hi, rng, size):
    u = rng.uniform(size=size)
    g_lo, g_hi = cf.power_integral(n, t_lo, sign), cf.power_integral(n, t_hi, sign)
    return cf.power_integral_inverse(n, g_lo + u * (g_hi - g_lo), sign)


def _ref_poisson(rng, mean):
    if mean > ps.MAX_EXPECTED_COUNT:
        raise ValueError("expected obstacle count exceeds resource guard")
    return int(rng.poisson(mean))


def _ref_boolean_annulus(d, gamma, law, t_lo, t_hi, rng):
    n = _ref_poisson(rng, gamma * (float(cf.ball_volume(d, t_hi)) - float(cf.ball_volume(d, t_lo))))
    if n == 0:
        return np.empty(0), np.empty((0, d)), np.empty(0)
    dists = _ref_profile_annulus(d - 1, -1, t_lo, t_hi, rng, n)
    dirs = _ref_unit_vectors(d, rng, n)
    radii = law.sample_radii([rng], [n])
    keep = dists > radii
    return dists[keep], dirs[keep], radii[keep]


def _ref_hyperplane_annulus(d, gamma, t_lo, t_hi, rng):
    n = _ref_poisson(rng, gamma * (ps.plane_measure(d, t_hi) - ps.plane_measure(d, t_lo)))
    if n == 0:
        return np.empty(0), np.empty((0, d))
    return _ref_profile_annulus(d - 1, 1, t_lo, t_hi, rng, n), _ref_unit_vectors(d, rng, n)


def _ref_cap_union(d, gamma, scale, sign, gap, t_lo, t_hi, rng, rays):
    """(distances, directions, keep): a Poisson count per ray's cap of versine gap, then distances, versines
    w (proposed as gap U^{2/(d-1)}, thinned to the direction density) and directions (1 - w) u + sqrt(w (2 - w)) v
    with v uniform and orthogonal to the cap's ray u; kept where thinning keeps them and no earlier cap holds them."""
    s = scale * ps.cap_share(d, gap)
    mean = gamma * (s * cf.power_integral(d - 1, t_hi, sign) - s * cf.power_integral(d - 1, t_lo, sign))
    owners = np.repeat(np.arange(len(rays)), rng.poisson(mean, len(rays)))
    n = len(owners)
    dists = _ref_profile_annulus(d - 1, sign, t_lo, t_hi, rng, n)
    u = rng.uniform(size=(1 if d == 3 else 2, n))
    vers = gap * u[0] ** (2.0 / (d - 1))
    bound = (2.0 if d >= 3 else 2.0 - gap) ** ((d - 3) / 2)
    keep = np.ones(n, dtype=bool) if d == 3 else u[1] * bound < (2.0 - vers) ** ((d - 3) / 2)
    axes = rays[owners]
    v = rng.standard_normal((n, d))
    v -= np.sum(v * axes, axis=1, keepdims=True) * axes
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dirs = (1.0 - vers)[:, None] * axes + np.sqrt(vers * (2.0 - vers))[:, None] * v
    for k, owner in enumerate(owners):
        keep[k] &= not np.any(0.5 * np.sum((dirs[k] - rays[:owner]) ** 2, axis=1) < gap)
    return dists, dirs, keep


def _ref_boolean_cap_union(d, gamma, law, t_lo, t_hi, rng, rays):
    gap = ps.grain_cap_gap(law.max_radius, t_lo)
    dists, dirs, keep = _ref_cap_union(d, gamma, cf.omega(d), -1, gap, t_lo, t_hi, rng, rays)
    radii = law.sample_radii([rng], [len(dists)])
    keep &= dists > radii
    return dists[keep], dirs[keep], radii[keep]


def _ref_hyperplane_cap_union(d, gamma, t_lo, t_hi, rng, rays):
    dists, dirs, keep = _ref_cap_union(d, gamma, 2.0, 1, ps.plane_cap_gap(t_lo), t_lo, t_hi, rng, rays)
    return dists[keep], dirs[keep]


def _ref_sweep(d, gamma, scale, sign, margin, annulus, hits, dirs, cutoff, rng, block_target, caps=None):
    """Ranges of one replication; caps, if given, is (share, union sampler) of the capped blocks."""
    n = d - 1
    best = np.full(len(dirs), cutoff)
    t_lo, capped = 0.0, False
    while True:
        stop_at = float(best.max()) + margin
        if t_lo >= stop_at - 1e-12:
            break
        capped = capped or (caps is not None and 0.0 < len(dirs) * caps[0](t_lo) <= 1.0)
        share = caps[0](t_lo) if capped else 1.0
        per_block = (vis._CAP_BLOCK_TARGET if capped else block_target) / (gamma * scale * share)
        reach = float(cf.power_integral_inverse(n, cf.power_integral(n, t_lo, sign) + per_block, sign))
        t_hi = max(min(stop_at, reach), t_lo + 1e-6)
        live = np.flatnonzero(best > t_lo - margin - 1e-9)
        obstacles = caps[1](t_lo, t_hi, rng, dirs[live]) if capped else annulus(t_lo, t_hi, rng)
        if len(obstacles[0]):
            best[live] = np.minimum(best[live], hits(dirs[live], *obstacles).min(axis=1))
        t_lo = t_hi
    return best


def reference_ranges(d, gamma, law, n_reps, n_rays, cutoff, seed, direction=None, block_target=None, capped=True):
    """(n_reps, n_rays) ranges through the Boolean model (law given) or the hyperplanes (law None),
    in blocks of block_target expected obstacles (by default the module's _BLOCK_TARGET). With capped and
    more than one ray, the blocks from where n_rays caps hold less than the annulus draw the union of the
    live rays' caps."""
    block_target = vis._BLOCK_TARGET if block_target is None else block_target
    out = np.empty((n_reps, n_rays))
    for i in range(n_reps):
        rng = stream(seed, i)
        dirs = _ref_unit_vectors(d, rng, n_rays) if direction is None else np.asarray(direction, float)[None, -d:]
        if law is None:
            annulus = partial(_ref_hyperplane_annulus, d, gamma)
            share = lambda t: ps.cap_share(d, ps.plane_cap_gap(t))  # noqa: E731
            caps = (share, partial(_ref_hyperplane_cap_union, d, gamma)) if capped and n_rays > 1 else None
            out[i] = _ref_sweep(d, gamma, 2.0, 1, 0.0, annulus, dense_plane_hits, dirs, cutoff, rng, block_target, caps)
        else:
            annulus = partial(_ref_boolean_annulus, d, gamma, law)
            share = lambda t: ps.cap_share(d, ps.grain_cap_gap(law.max_radius, t))  # noqa: E731
            caps = (share, partial(_ref_boolean_cap_union, d, gamma, law)) if capped and n_rays > 1 else None
            out[i] = _ref_sweep(d, gamma, cf.omega(d), -1, law.max_radius, annulus, dense_grain_hits, dirs, cutoff,
                                rng, block_target, caps)
    return out


ROUND = fanout.ROUND_REPS  # replications per round with one ray each


def _censored_cutoff(rate):
    """A cutoff that censors about a fifth of the ranges of an Exp(rate) law."""
    return math.log(5.0) / rate


@pytest.fixture(params=["blocks-256", "blocks-2"])
def round_size(request, monkeypatch):
    """Replications per single-ray round: the module's (blocks of _BLOCK_TARGET expected obstacles for
    many rays, _CAP_BLOCK_TARGET in a single ray's cap), or 16 with blocks of 2 expected obstacles.

    Small blocks give every replication many blocks, many of them empty, and
    replications that end at different blocks of one round. Many-ray rounds
    then hold 16 replications at 2 rays, 10 at 3 and one from 33 rays on.
    """
    if request.param == "blocks-2":
        monkeypatch.setattr(vis, "_BLOCK_TARGET", 2)
        monkeypatch.setattr(vis, "_CAP_BLOCK_TARGET", 2)
        monkeypatch.setattr(fanout, "ROUND_REPS", 16)
    return fanout.ROUND_REPS


@lru_cache(maxsize=None)
def _single_ray_reference(d, gamma, law, cutoff, seed, fixed):
    """Ranges of 800 replications of the uncapped reference sweep with one ray each, in blocks of 256;
    the ray has a uniform direction, or with fixed the direction e_d in every replication."""
    direction = np.eye(d)[d - 1] if fixed else None
    return reference_ranges(d, gamma, law, 800, 1, cutoff, seed, direction, block_target=256)[:, 0]


@pytest.fixture(scope="module")
def single_ray_runs():
    """run(sample, cutoff, seed, size, blocks): the ranges of 800 replications, sample(800, cutoff, seed),
    checked once per sample and blocks, the round_size param, for the reference's uniform and fixed direction
    alike. For each n of the grid below 800 (all of it with small rounds; test_prefix_of_a_longer_run runs the
    module's rounds), the first n are bit for bit those of a run of n, whether n spans part of a round or
    several. The first reuse is checked against a fresh run."""
    runs, checked = {}, []

    def run(sample, cutoff, seed, size, blocks):
        key = sample.func.__name__, sample.args, blocks
        if key not in runs:
            values, censored = sample(800, cutoff, seed)
            assert np.array_equal(censored, values >= cutoff - 1e-12)
            assert censored.any() and not censored.all()
            for n in (1, size - 1, size, size + 1, 2 * size + 1):
                if n < len(values):
                    head, head_censored = sample(n, cutoff, seed)
                    assert np.array_equal(head, values[:n]) and np.array_equal(head_censored, censored[:n])
            runs[key] = values, censored
        elif not checked:
            assert all(np.array_equal(a, b) for a, b in zip(sample(800, cutoff, seed), runs[key])), key
            checked.append(key)
        return runs[key][0]

    return run


def _round_of(value) -> tuple:
    """The per_round of vis._map_rounds that keeps what its ranges function returned for each round."""
    return (value,)


class TestRounds:
    """Replication rounds return bit for bit the ranges of sweeping one replication at a time, whatever
    the round size; single rays sweep only their direction cap, so their ranges follow the reference's law.
    By isotropy that law is the same whether the reference's ray has a uniform or a fixed direction."""

    def test_round_size(self):
        assert ROUND == 512
        # a round holds at most 4096 expected obstacles per block and 4096 rays: one ray sweeps blocks of 8
        # in its cap, many rays blocks of 256 (16 replications), and beyond 256 rays the ray count bounds it
        for n_rays, size in ((1, ROUND), (2, 16), (50, 16), (200, 16), (256, 16), (300, 13), (4096, 1), (4097, 1)):
            (sizes,) = vis._map_rounds(2, ROUND + 1, n_rays, 1.0, 0, lambda dirs, cutoff, rngs: [len(rngs)], _round_of)
            assert list(np.cumsum(sizes) - sizes) == list(range(0, ROUND + 1, size))

    def test_single_rays_draw_no_direction(self, monkeypatch):
        # by isotropy the capped sweep never reads a single ray's direction, so no replication draws one;
        # two rays per replication do draw theirs
        def refused(*args):
            raise AssertionError("a replication drew ray directions")

        monkeypatch.setattr(ps, "unit_vectors", refused)
        law = cf.FixedRadius(0.5)
        vis.sample_visibility_ranges(2, 1.5, law, ROUND + 7, 2.0, 12)
        vis.sample_zero_cell_ranges(3, 6.0, ROUND + 7, 1.0, 15)
        assert vis.estimate_visible_volume(2, 2.5, law, 40, 1, None, 4.0, 7).n_rays == 1
        assert vis.estimate_zero_cell_volume(2, 3.0, 40, 1, 3.0, 10).n_rays == 1
        with pytest.raises(AssertionError, match="drew ray directions"):
            vis.estimate_visible_volume(2, 2.5, law, 40, 2, None, 4.0, 7)

    def test_rounds_of_one_beyond_the_ray_budget(self):
        (sizes,) = vis._map_rounds(2, 3, 390_625, 1.0, 0, lambda dirs, cutoff, rngs: [len(dirs[..., 0])], _round_of)
        assert list(zip(np.cumsum(sizes) - sizes, sizes)) == [(0, 1), (1, 1), (2, 1)]

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("law", [cf.FixedRadius(0.5), cf.UniformRadius(0.1, 0.6)], ids=["fixed", "uniform"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_visibility_ranges(self, d, law, fixed, round_size, single_ray_runs, request):
        v_star = cf.grain_moments(d, law).v_dm1_star
        gamma = 2.0 * (d - 1) / v_star  # rate 2(d-1): a replication of the reference costs a few blocks
        cutoff, seed = _censored_cutoff(gamma * v_star), 60 + d
        ref = _single_ray_reference(d, gamma, law, cutoff, seed + 2000, fixed)
        sample = partial(vis.sample_visibility_ranges, d, gamma, law)
        values = single_ray_runs(sample, cutoff, seed, round_size, request.node.callspec.params["round_size"])
        assert ks_2samp(values, ref).pvalue > 0.01

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_zero_cell_ranges(self, d, fixed, round_size, single_ray_runs, request):
        gamma = 2.0 * (d - 1) / cf.zero_cell_rate(d, 1.0)
        cutoff, seed = _censored_cutoff(cf.zero_cell_rate(d, gamma)), 70 + d
        ref = _single_ray_reference(d, gamma, None, cutoff, seed + 2000, fixed)
        sample = partial(vis.sample_zero_cell_ranges, d, gamma)
        values = single_ray_runs(sample, cutoff, seed, round_size, request.node.callspec.params["round_size"])
        assert ks_2samp(values, ref).pvalue > 0.01

    def test_prefix_of_a_longer_run(self):
        for sample in (partial(vis.sample_zero_cell_ranges, 3, 6.0),
                       partial(vis.sample_visibility_ranges, 3, 4.0, cf.UniformRadius(0.1, 0.6))):
            values, censored = sample(3 * ROUND + 7, 1.0, 15)
            for m in (5, ROUND + 3, 2 * ROUND - 1):
                head, head_censored = sample(m, 1.0, 15)
                assert np.array_equal(head, values[:m]) and np.array_equal(head_censored, censored[:m])

    # (d, n_rays, n_reps, (grain, plane) intensities, cutoff). 2 is the fewest rays of a many-ray sweep. 200 rays
    # in d = 2 at rates near 1 sweep past t = 5, beyond where their caps hold less than the annulus (t = 4.3 for
    # grains, 4.9 for planes); 50 rays in d = 4 get there by t = 1. Each replication of a many-ray round takes
    # its own products, and the hits, minima and writes of the round's pairs run once.
    @pytest.mark.parametrize("d, n_rays, n_reps, gammas, cutoff", [
        (2, 2, 45, (2.5, 3.0), 2.5),
        (2, 3, 45, (2.5, 3.0), 2.5),
        (2, 64, 45, (2.5, 3.0), 2.5),
        (2, 200, 20, (1.0, 1.7), 8.0),
        (4, 50, 20, (6.0, 9.0), 4.0),
    ], ids=["2", "3", "64", "200", "d4-50"])
    def test_estimators(self, d, n_rays, n_reps, gammas, cutoff, round_size, monkeypatch):
        law = cf.FixedRadius(0.5)
        capped = []

        def counted(*args, _fn=ps.sample_cap_union):
            capped.append(len(args[-1]))
            return _fn(*args)

        monkeypatch.setattr(ps, "sample_cap_union", counted)
        for estimate, ref, cap in (
            (partial(vis.estimate_visible_volume, d, gammas[0], law, n_reps, n_rays, 2.0, cutoff, 16),
             reference_ranges(d, gammas[0], law, n_reps, n_rays, cutoff, 16), 2.0),
            (partial(vis.estimate_zero_cell_volume, d, gammas[1], n_reps, n_rays, cutoff, 17),
             reference_ranges(d, gammas[1], None, n_reps, n_rays, cutoff, 17), cutoff),
        ):
            capped.clear()
            rec = estimate()
            assert capped or n_rays <= 64
            rep_vals = [cf.omega(d) * float(np.mean(cf.sinh_integral(d, np.minimum(r, cap)))) for r in ref]
            assert rec.estimate == float(np.mean(rep_vals))
            assert rec.stderr == float(np.std(rep_vals, ddof=1) / math.sqrt(n_reps))
            assert round(rec.censored_fraction * n_reps * n_rays) == int(np.sum(ref >= cutoff - 1e-12))

    @pytest.mark.parametrize("n_rays", [2, 3, 64, 200])
    def test_estimator_records_do_not_depend_on_round_size(self, n_rays, round_size, monkeypatch):
        # each replication of a many-ray round makes its own draws and kernel calls, so every record is bit
        # for bit that of rounds of one replication, which a budget of _CAP_BLOCK_TARGET rays forces. Blocks of
        # 256 obstacles reach t = 2 or so at once, so they need a deeper cutoff for replications to end in
        # different blocks.
        cutoff = 3.0 if round_size == ROUND else 1.0
        estimates = (
            partial(vis.estimate_visible_volume, 3, 3.0, cf.FixedRadius(0.5), 20, n_rays, None, cutoff, 18),
            partial(vis.estimate_visible_volume, 3, 2.0, cf.UniformRadius(0.1, 0.6), 20, n_rays, cutoff / 2, cutoff, 19),
            partial(vis.estimate_zero_cell_volume, 3, 5.0, 20, n_rays, cutoff, 20),
        )
        generators = []  # per sampler call: (t_lo, generators in the call)
        for name, rays in (("sample_boolean_annulus", 0), ("sample_hyperplane_annulus", 0), ("sample_cap_union", 1)):
            def counted(*args, _fn=getattr(ps, name), _rays=rays):  # the cap union takes the live rays last
                generators.append((args[-3 - _rays], len(args[-1 - _rays])))
                return _fn(*args)
            monkeypatch.setattr(ps, name, counted)
        records = [dataclasses.replace(estimate(), runtime_ms=0.0) for estimate in estimates]
        # a round starts at t_lo = 0; in some round of several replications some stop blocks before others
        starts = [i for i, (t_lo, _) in enumerate(generators) if t_lo == 0.0] + [len(generators)]
        shared = [{k for _, k in generators[a:b]} for a, b in zip(starts, starts[1:]) if generators[a][1] > 1]
        assert bool(shared) == (n_rays < 33 or round_size == ROUND)
        assert not shared or any(len(sizes) > 1 for sizes in shared)
        monkeypatch.setattr(fanout, "ROUND_REPS", 1)
        assert [dataclasses.replace(estimate(), runtime_ms=0.0) for estimate in estimates] == records

    def test_estimators_sample_one_annulus_per_block(self, monkeypatch):
        # the many-ray sweep draws each block of a round in one call of the annulus samplers, looked up
        # as procsim attributes, where benchmarks/tracer.py times them; _block_end runs once per block of
        # every sweep. 20 replications of 10 rays make two rounds, of 16 and 4 replications.
        calls = {"sample_boolean_annulus": [], "sample_hyperplane_annulus": [], "_block_end": []}
        for module, name in ((ps, "sample_boolean_annulus"), (ps, "sample_hyperplane_annulus"), (vis, "_block_end")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name].append(args[-1])  # a sampler's generators, or a block's t_lo
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        for estimate, sampler, other in (
            (partial(vis.estimate_visible_volume, 2, 2.5, cf.FixedRadius(0.5), 20, 10, None, 2.5, 16),
             "sample_boolean_annulus", "sample_hyperplane_annulus"),
            (partial(vis.estimate_zero_cell_volume, 2, 3.0, 20, 10, 2.5, 17),
             "sample_hyperplane_annulus", "sample_boolean_annulus"),
        ):
            for seen in calls.values():
                seen.clear()
            estimate()
            sizes = [len(rngs) for rngs in calls[sampler]]
            assert len(sizes) == len(calls["_block_end"]) and not calls[other]
            assert sizes[0] == max(sizes) == 16 and 4 in sizes

    def test_a_many_ray_block_runs_the_hit_formula_once(self, monkeypatch):
        # 16 replications of 200 rays make one round, which sweeps one annulus block and then blocks of the union
        # of the live rays' caps. Each block evaluates _grain_hits once, on the pairs of every replication that
        # pass the cone test, not once for each replication that drew obstacles.
        hits, blocks = [], []

        def counted_hit(*args, _fn=vis._grain_hits):
            hits.append(len(args[0]))
            return _fn(*args)

        monkeypatch.setattr(vis, "_grain_hits", counted_hit)
        for name in ("sample_boolean_annulus", "sample_cap_union"):
            def counted_block(*args, _fn=getattr(ps, name)):
                out = _fn(*args)
                blocks.append(out[-1])
                return out
            monkeypatch.setattr(ps, name, counted_block)
        vis.estimate_visible_volume(2, 1.0, cf.FixedRadius(0.5), 16, 200, 2.0, 8.0, 16)
        assert np.count_nonzero(blocks[0]) == 16
        assert 0 < len(hits) <= len(blocks) < sum(np.count_nonzero(counts) for counts in blocks)

    def test_resource_guard_raises_inside_a_round(self):
        # both are refused before the first round is drawn: the first block, at least _MIN_BLOCK_WIDTH = 1e-6
        # wide, expects 1.27e9 planes in the ray's cap, and 4.1e23 grains lie near the base point
        with pytest.raises(ValueError, match="resource guard"):
            vis.sample_zero_cell_ranges(2, 1e15, ROUND + 1, 1.0, 0)
        with pytest.raises(ValueError, match="resource guard"):
            vis.sample_visibility_ranges(2, 1e21, cf.FixedRadius(0.5), ROUND + 1, 1.0, 0)


# Runs cut into spans of whole rounds for forked workers, each as (rays per replication, call of n replications).
# The d = 4 volumes are truncated; at this intensity the uniform law's untruncated mean is infinite (a = 1.83 < 3).
FAN_OUT_CALLS = {
    "visvol-d2-fixed": (3, lambda n: vis.estimate_visible_volume(2, 2.5, cf.FixedRadius(0.5), n, 3, None, 2.5, 31)),
    "visvol-d2-uniform": (3, lambda n: vis.estimate_visible_volume(2, 1.2, cf.UniformRadius(0.1, 0.6), n, 3, 2.0,
                                                                   2.5, 32)),
    "visvol-d4-fixed": (3, lambda n: vis.estimate_visible_volume(4, 6.0, cf.FixedRadius(0.5), n, 3, 1.0, 1.5, 33)),
    "visvol-d4-uniform": (3, lambda n: vis.estimate_visible_volume(4, 6.0, cf.UniformRadius(0.1, 0.6), n, 3, 1.0,
                                                                   1.5, 34)),
    "zero-cell-d2": (3, lambda n: vis.estimate_zero_cell_volume(2, 3.0, n, 3, 2.5, 35)),
    "ranges-d2": (1, lambda n: vis.sample_visibility_ranges(2, 1.5, cf.FixedRadius(0.5), n, 2.0, 36)),
    "segments-d2": (1, lambda n: vis.estimate_segment_crossings(2, 1.0, 1.0, n, 37)),  # rounds of fanout.ROUND_REPS
}


def _serial(call):
    """call()'s result, runtime_ms aside, from a serial run."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fanout, "_FORK_MIN_WORK", math.inf)
        return _comparable(call())


@pytest.fixture(scope="module")
def serial_runs():
    """serial(name, blocks, n): _serial of FAN_OUT_CALLS[name] at n replications, blocks being the round_size
    param, computed once for the three CPU counts of test_same_as_serial. The first reuse is checked against a
    fresh run."""
    runs, checked = {}, []

    def serial(name, blocks, n):
        call = partial(FAN_OUT_CALLS[name][1], n)
        key = name, blocks, n
        if key not in runs:
            runs[key] = _serial(call)
        elif not checked:
            assert _serial(call) == runs[key], key
            checked.append(key)
        return runs[key]

    return serial


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork makes, with the floor of work for a fork lowered to 1."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(fanout, "_FORK_MIN_WORK", 1)
    return pids


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _fails_in_a_child(monkeypatch, name, fail):
    """Make procsim's sampler name call fail() in a forked child, and sweep as usual in this process."""
    parent, sampler = os.getpid(), getattr(ps, name)

    def sample(*args, **kwargs):
        if os.getpid() != parent:
            fail()
        return sampler(*args, **kwargs)

    monkeypatch.setattr(ps, name, sample)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedRounds:
    """A large run sweeps contiguous spans of whole rounds in forked children, and its records and ranges are bit
    for bit those of the serial run, whatever the number of CPUs."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FAN_OUT_CALLS))
    def test_same_as_serial(self, name, cpus, round_size, forks, serial_runs, request, monkeypatch):
        # for each n of the round-size grid, under every stream derivation; a span of W = min(cpus, rounds)
        # holds one round or more, so the grid has spans of part of a round and of several
        n_rays, call = FAN_OUT_CALLS[name]
        size = vis._round_size(n_rays)
        _cpus(monkeypatch, cpus)
        for n in (1, size - 1, size, size + 1, 2 * size + 1):
            if n < 2 and name != "ranges-d2":  # a standard error needs two replications
                continue
            expected = serial_runs(name, request.node.callspec.params["round_size"], n)
            for derivation, derive in [("streams", lambda m: None), *STREAM_DERIVATIONS.items()]:
                forks.clear()
                with monkeypatch.context() as m:
                    derive(m)
                    assert _comparable(call(n)) == expected, (n, derivation)
                assert len(forks) == min(cpus, -(-n // size)) - 1, n

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_same_as_serial_deep(self, cpus, forks, monkeypatch):
        # 200 rays sweep past the depth from which blocks draw the union of the live rays' caps (see
        # TestRounds.test_estimators); 20 replications make rounds of 16 and 4
        _cpus(monkeypatch, cpus)
        for call in (partial(vis.estimate_visible_volume, 2, 1.0, cf.FixedRadius(0.5), 20, 200, 2.0, 8.0, 16),
                     partial(vis.estimate_zero_cell_volume, 2, 1.7, 20, 200, 8.0, 17)):
            assert _comparable(call()) == _serial(call)
        assert len(forks) == 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("gamma, law, r_win", [(1.0, cf.FixedRadius(0.5), 3.0), (0.6, cf.UniformRadius(0.2, 0.8), 2.0)],
                             ids=["criterion-4", "uniform"])
    def test_windows_same_as_serial(self, gamma, law, r_win, cpus, forks, monkeypatch):
        # the intersection density over its round-size grid: rounds of 13 windows at criterion 4's parameters
        size = intersect._round_size(gamma, law, r_win)
        _cpus(monkeypatch, cpus)
        for n in (size - 1, size, size + 1, 2 * size + 1):
            call = partial(intersect.estimate_intersection_density, gamma, law, r_win, n, 61)
            expected = _serial(call)
            forks.clear()
            assert _comparable(call()) == expected, n
            assert len(forks) == min(cpus, -(-n // size)) - 1, n

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_strata_same_as_serial(self, cpus, forks, monkeypatch):
        # the 8 batches are rounds of one: spans of 8, of 4 and 4, and of 2, 3 and 3 batches
        monkeypatch.setattr(vis, "STRATIFIED_SIMS", 500)
        _cpus(monkeypatch, cpus)
        call = partial(vis.estimate_visible_volume_stratified, 2, 1.0, cf.FixedRadius(0.5), (1.0, 2.5), 62)
        expected = _serial(call)
        assert _comparable(call()) == expected
        assert len(forks) == cpus - 1

    def test_tangent_pairs_of_every_span_are_summed(self, forks, monkeypatch):
        # a tolerance of 0.1 takes many pairs for tangent: the error names the serial run's count
        monkeypatch.setattr(intersect, "_TANGENCY_TOL", 0.1)
        call = partial(intersect.estimate_intersection_density, 1.0, cf.FixedRadius(0.5), 3.0, 27, 63)
        with pytest.raises(RuntimeError, match="tangent pairs") as serial:
            _serial(call)
        _cpus(monkeypatch, 3)
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(serial.value))}$"):
            call()
        assert len(forks) == 2

    def test_a_tangent_pair_in_a_child_raises(self, forks, monkeypatch):
        # only the child's span takes near pairs for tangent; the parent's span alone finds none
        call = partial(intersect.estimate_intersection_density, 1.0, cf.FixedRadius(0.5), 3.0, 27, 63)
        _serial(call)
        _cpus(monkeypatch, 2)
        _fails_in_a_child(monkeypatch, "sample_boolean_annulus", lambda: setattr(intersect, "_TANGENCY_TOL", 0.1))
        with pytest.raises(RuntimeError, match=r"observed \d+ tangent pairs; tangency has probability zero"):
            call()
        assert len(forks) == 1

    def test_the_fan_out_rule(self, monkeypatch):
        # criterion 1 sweeps 10,000 single rays, and the benchmark's serial sweep calls at most 2,000
        assert 2_000 < fanout._FORK_MIN_WORK <= 10_000
        monkeypatch.setattr(fanout, "_FORK_MIN_WORK", 1)
        _cpus(monkeypatch, 2)
        sweeps = []
        monkeypatch.setattr(fanout, "fork_map", lambda fn, spans: sweeps.append(spans) or [fn(*s) for s in spans])
        vis.sample_zero_cell_ranges(2, 2.0, ROUND + 1, 2.0, 3)  # two rounds
        vis.sample_zero_cell_ranges(2, 2.0, ROUND, 2.0, 3)  # one round
        _cpus(monkeypatch, 1)
        vis.sample_zero_cell_ranges(2, 2.0, ROUND + 1, 2.0, 3)
        assert sweeps == [[(0, ROUND), (ROUND, ROUND + 1)], [(0, ROUND)], [(0, ROUND + 1)]]

    def test_which_runs_fork(self, monkeypatch, benchmark_workloads):
        # the work each run passes to fanout.map_spans, taken there before any draw: criteria 1, 4, 9 and 11 and
        # the benchmark's visvol-d4 reach the floor, its four single-ray sweep calls fall below it
        class Stop(Exception):
            pass

        def work_of(run):
            works = []

            def spy(fn, count, size, work):
                works.append(work)
                raise Stop

            with monkeypatch.context() as m:
                m.setattr(fanout, "map_spans", spy)
                with pytest.raises(Stop):
                    run()
            return works[0]

        floor, seed = fanout._FORK_MIN_WORK, acceptance.DEFAULT_SEED
        # 2000 windows of radius 3 and grains of radius 0.5 at intensity 1: about 97.85 expected grains each
        c4 = work_of(lambda: acceptance.CRITERIA[4](seed))
        assert c4 == pytest.approx(2000 * 2 * math.pi * (math.cosh(3.5) - 1), rel=1e-12) and c4 >= floor
        assert work_of(lambda: acceptance.CRITERIA[9](seed)) == 8 * 25_000 * 40 >= floor
        assert work_of(lambda: acceptance.CRITERIA[1](seed)) == 10_000 >= floor
        # criterion 11: 10,000 segments of length 1 through 2 sinh(1) expected planes each at intensity 1
        assert work_of(lambda: acceptance.CRITERIA[11](seed)) == 10_000 * 1.0 * ps.plane_measure(2, 1.0) >= floor
        workloads = benchmark_workloads.WORKLOADS
        calls = [call for name in ("sweep-d3", "sweep-highdim") for call in workloads[name](seed, False).calls]
        works = {call.label: work_of(call.run) for call in calls}
        assert works.pop("visvol-d4") == 700 * 50 >= floor
        assert len(works) == 4 and max(works.values()) == 2000 < floor

    def test_serial_while_another_thread_runs(self, forks, monkeypatch):
        _cpus(monkeypatch, 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            vis.sample_zero_cell_ranges(2, 2.0, ROUND + 1, 2.0, 3)
        finally:
            done.set()
            thread.join()
        assert forks == []
        vis.sample_zero_cell_ranges(2, 2.0, ROUND + 1, 2.0, 3)
        assert len(forks) == 1

    def test_a_child_error_reaches_the_caller(self, forks, monkeypatch):
        def guard():
            raise ps.ResourceGuardError("raised in a child")

        _cpus(monkeypatch, 3)
        _fails_in_a_child(monkeypatch, "sample_boolean_annulus", guard)
        with pytest.raises(ps.ResourceGuardError, match="raised in a child"):
            vis.estimate_visible_volume(2, 2.5, cf.FixedRadius(0.5), 40, 3, None, 2.5, 31)
        assert len(forks) == 2
        _assert_no_child_left()

    def test_a_child_that_dies_raises(self, forks, monkeypatch):
        _cpus(monkeypatch, 2)
        _fails_in_a_child(monkeypatch, "sample_hyperplane_annulus", lambda: os._exit(3))
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="died without a result, exit status 3"):
            vis.estimate_zero_cell_volume(2, 3.0, 40, 3, 2.5, 35)
        assert time.perf_counter() - t0 < 10.0
        assert len(forks) == 1
        _assert_no_child_left()

    def test_an_error_here_kills_the_children(self, forks, monkeypatch):
        # the children of a failing call are killed and reaped; the third one's span would sweep for minutes
        parent, sampler = os.getpid(), ps.sample_cap_annuli

        def sample(*args):
            if os.getpid() == parent:
                raise ps.ResourceGuardError("raised here")
            time.sleep(60.0)
            return sampler(*args)

        _cpus(monkeypatch, 3)
        monkeypatch.setattr(ps, "sample_cap_annuli", sample)
        t0 = time.perf_counter()
        with pytest.raises(ps.ResourceGuardError, match="raised here"):
            vis.sample_visibility_ranges(2, 1.5, cf.FixedRadius(0.5), 3 * ROUND, 2.0, 36)
        assert time.perf_counter() - t0 < 10.0
        assert len(forks) == 2
        _assert_no_child_left()

    def test_import_loads_no_process_pool(self):
        # the workers are bare forks: importing a pool's modules would cost every run's set-up time
        code = "import hypervis, sys; print(sorted(m for m in sys.modules if m.split('.')[0] in {'multiprocessing', 'concurrent'}))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "[]"


class TestCapUnionSweep:
    """Many-ray blocks draw only the union of the live rays' caps once the caps of all the rays hold less than
    the annulus; the ranges keep the law of the full-annulus reference."""

    @pytest.mark.parametrize("law", [cf.FixedRadius(0.5), cf.UniformRadius(0.1, 0.6), None],
                             ids=["fixed", "uniform", "planes"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ranges_match_the_annulus_reference(self, d, law, monkeypatch):
        # rate d - 1, three rays and annulus blocks of 8: most replications sweep past the switch, at t = 0 to 0.65
        monkeypatch.setattr(vis, "_BLOCK_TARGET", 8)
        calls = []

        def counted(*args, _fn=ps.sample_cap_union):
            calls.append(len(args[-1]))
            return _fn(*args)

        monkeypatch.setattr(ps, "sample_cap_union", counted)
        rate = float(d - 1)
        gamma = rate / (cf.grain_moments(d, law).v_dm1_star if law else cf.zero_cell_rate(d, 1.0))
        n_reps, n_rays, cutoff, seed = 400, 3, 2.0, 110 + d
        sweep = partial(vis._boolean_ranges, d, gamma, law) if law else partial(vis._hyperplane_ranges, d, gamma)
        (capped,) = vis._map_rounds(d, n_reps, n_rays, cutoff, seed, sweep, _round_of)
        ref = reference_ranges(d, gamma, law, n_reps, n_rays, cutoff, seed + 1000, block_target=256, capped=False)
        assert sum(calls) > n_reps / 4  # the replications still sweeping in each capped block
        # the replications are independent, their rays are not: compare the replications' mean ranges
        assert ks_2samp(capped.mean(axis=1), ref.mean(axis=1)).pvalue > 0.01

    def test_caps_of_share_zero_keep_annulus_blocks(self, monkeypatch):
        # grains of radius 1e-300 have caps of share 0 in double precision: the sweep keeps its annulus blocks,
        # and the record is bit for bit that of the full-annulus reference
        law, cutoff = cf.FixedRadius(1e-300), 2.0
        assert ps.cap_share(2, ps.grain_cap_gap(1e-300, 1e-6)) == 0.0

        def refused(*args):
            raise AssertionError("a block of share 0 drew the union of its rays' caps")

        monkeypatch.setattr(ps, "sample_cap_union", refused)
        vis.check_sweep("visvol_truncated", 2, 1.0, law, 5, cutoff, 3, 3, 1.0)
        rec = vis.estimate_visible_volume(2, 1.0, law, 5, 3, 1.0, cutoff, 3)
        ref = reference_ranges(2, 1.0, law, 5, 3, cutoff, 3, capped=False)
        rep_vals = [cf.omega(2) * float(np.mean(cf.sinh_integral(2, np.minimum(r, 1.0)))) for r in ref]
        assert rec.estimate == float(np.mean(rep_vals)) and rec.censored_fraction == 1.0
        assert len(set(rep_vals)) == 1 and rec.stderr == 0.0  # equal replications have no spread


class TestCappedSweep:
    """A single ray sweeps only the obstacles in its direction cap; its ranges keep their law."""

    @pytest.mark.parametrize("law", [cf.FixedRadius(0.5), cf.UniformRadius(0.1, 0.9)], ids=["fixed", "uniform"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_band_oracle(self, d, law):
        # the paper's band construction samples, in Fermi coordinates along the ray, exactly the grains
        # that can first touch it in (0, cutoff]: an independent oracle for the polar sampler
        v_star = cf.grain_moments(d, law).v_dm1_star
        gamma = 0.75 * (d - 1) / v_star  # rate below d - 1: long ranges, swept through many blocks
        cutoff, n = _censored_cutoff(gamma * v_star), 4000
        values, censored = vis.sample_visibility_ranges(d, gamma, law, n, cutoff, seed=90 + d)
        first = ps.band_first_touches(d, gamma, law, 0.0, cutoff, n, stream(91, d))
        assert censored.any() and not censored.all()
        assert ks_2samp(values, np.minimum(first, cutoff)).pvalue > 0.01

    @pytest.mark.parametrize("d", [2, 3])
    def test_deep_ranges_keep_their_law(self, d):
        # rate 0.1 and cutoff 40: ranges reach depths where cos theta of a reachable obstacle rounds to 1
        from hypervis.harness import ks_exponential

        rate, cutoff, n = 0.1, 40.0, 2000
        law = cf.FixedRadius(0.5)
        for values, censored in (
            vis.sample_visibility_ranges(d, rate / cf.grain_moments(d, law).v_dm1_star, law, n, cutoff, seed=92 + d),
            vis.sample_zero_cell_ranges(d, rate / cf.zero_cell_rate(d, 1.0), n, cutoff, seed=94 + d),
        ):
            assert np.sum(values[~censored] > 20.0) > 50
            assert ks_exponential(values[~censored], rate, cutoff).passed
            assert abs(censored.mean() - math.exp(-rate * cutoff)) < 4 * math.sqrt(math.exp(-rate * cutoff) / n)

    def test_heavy_tail_cost_is_linear_in_range(self, monkeypatch):
        # rate 1.28 < d - 1 = 2: sampling whole annuli costs e^{2 R} draws for a range R, unbounded in mean
        from hypervis.harness import ExperimentConfig, run

        drawn = []

        def counted(d, t_lo, t_hi, u, size, profile=None, inner=ps.sample_radial_annulus):
            drawn.append(int(np.sum(size)))
            return inner(d, t_lo, t_hi, u, size, profile)

        monkeypatch.setattr(ps, "sample_radial_annulus", counted)
        config = ExperimentConfig(quantity="cdf_boolean", d=3, gamma=1.5, law=cf.FixedRadius(0.5), n_reps=2000,
                                  cutoff=8.0, seed=46)
        assert run(config).passed
        assert 0 < sum(drawn) < 30 * config.n_reps  # the capped sweep's distances pass through the counted sampler


class TestStratifiedEstimator:
    def test_matches_plain_estimator_supercritical(self):
        law = cf.FixedRadius(0.5)
        gamma = 2.0
        records = vis.estimate_visible_volume_stratified(2, gamma, law, (2.0, 4.0), seed=44)
        assert len(records) == 2
        for r, rec in zip((2.0, 4.0), records):
            assert rec.quantity == "visvol_stratified" and rec.n_reps == vis.STRATIFIED_BATCHES
            assert rec.n_rays == 0 and rec.seed == 44
            assert rec.closed_form == cf.truncated_visible_volume(2, gamma, law, r)
            assert abs(rec.estimate - rec.closed_form) < 4 * rec.stderr

    def test_radius_grid_validation(self):
        with pytest.raises(ValueError, match="multiple of band_width"):
            vis.estimate_visible_volume_stratified(2, 1.0, cf.FixedRadius(0.5), (1.3,))


class TestEstimateRecord:
    def test_z_score_invariant(self):
        # two replications 2.5 and 3.5: estimate 3.0, stderr sqrt(0.5)/sqrt(2) = 0.5
        rec = vis.make_record("q", 2, 1.0, None, [2.5, 3.5], 2.0, seed=1, t0=time.perf_counter(), n_rays=5)
        assert rec.estimate == 3.0 and rec.stderr == pytest.approx(0.5) and rec.n_reps == 2
        assert rec.z_score == pytest.approx(2.0)
        rec2 = vis.make_record("q", 2, 1.0, None, [2.5, 3.5], None, seed=1, t0=time.perf_counter(), n_rays=5)
        assert rec2.z_score is None

    def test_equal_values_have_no_spread(self):
        # `hypervis estimate visvol_truncated --gamma 1 --grain fixed:1e-300 --reps 5 --rays 3 --truncate 1
        # --cutoff 2 --seed 3` censors every ray, so its replications are equal; their computed std is rounding
        rec = vis.estimate_visible_volume(2, 1.0, cf.FixedRadius(1e-300), 5, 3, 1.0, 2.0, 3)
        assert rec.censored_fraction == 1.0 and rec.stderr == 0.0 and rec.z_score is None
        assert rec.estimate == pytest.approx(rec.closed_form, rel=1e-14)
        values = [0.1] * 7
        assert np.std(values, ddof=1) > 0.0
        rec = vis.make_record("q", 2, 1.0, None, values, 0.1, seed=1, t0=time.perf_counter())
        assert rec.stderr == 0.0 and rec.z_score is None
