import math
import time
from functools import lru_cache, partial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from hypervis import closedform as cf
from hypervis import hypgeom as hg
from hypervis import procsim as ps
from hypervis import visibility as vis
from hypervis.procsim import BallGrain, BooleanModelSample, Hyperplane, HyperplaneSample
from hypervis.rng import stream

from conftest import random_point


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
        assert vis.ray_grain_hit(hg.GeodesicRay(p, u), grain) == pytest.approx(1.5, abs=1e-12)

    def test_origin_covered(self):
        p = hg.base_point(2)
        grain = BallGrain(hg.exp_map(p, np.array([0.0, 1.0, 0.0]), 0.3), 0.5)
        assert vis.ray_grain_hit(hg.GeodesicRay(p, np.array([0.0, 0.0, 1.0])), grain) == 0.0

    def test_perpendicular_miss(self):
        p = hg.base_point(2)
        grain = BallGrain(hg.exp_map(p, np.array([0.0, 1.0, 0.0]), 1.0), 0.9)
        assert vis.ray_grain_hit(hg.GeodesicRay(p, np.array([0.0, 0.0, 1.0])), grain) is None

    def test_boundary_property(self, rng):
        hits = 0
        while hits < 200:
            p = random_point(2, rng)
            u = hg.random_direction(p, rng)
            center = random_point(2, rng, r_max=4.0)
            radius = rng.uniform(0.1, 1.0)
            if hg.dist(p, center) <= radius:
                continue
            t = vis.ray_grain_hit(hg.GeodesicRay(p, u), BallGrain(center, radius))
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
            u = hg.random_direction(p, rng)
            center = random_point(3, rng, r_max=4.0)
            radius = rng.uniform(0.1, 1.2)
            ray = hg.GeodesicRay(p, u)
            rays.append(ray)
            grains.append(BallGrain(center, radius))
            t = vis.ray_grain_hit(ray, BallGrain(center, radius))
            closed.append(np.inf if t is None else t)
        closed = np.array(closed)
        oracle = brute_force_hits(rays, grains)
        both_hit = np.isfinite(closed) & np.isfinite(oracle)
        assert np.mean(np.isfinite(closed)) > 0.05  # the comparison is not vacuous
        assert np.array_equal(np.isfinite(closed), np.isfinite(oracle))
        np.testing.assert_allclose(closed[both_hit], oracle[both_hit], atol=1e-8)

    def test_vector_kernel_matches_scalar(self, rng):
        p = hg.base_point(2)
        dirs = ps.unit_vectors(2, rng, 40)
        g_dist = rng.uniform(0.5, 4.0, size=60)
        g_dir = ps.unit_vectors(2, rng, 60)
        g_rad = rng.uniform(0.05, 0.45, size=60)
        matrix = vis.grain_hits_from_base(dirs, g_dist, g_dir, g_rad)
        centers = ps.points_from_polar(g_dist, g_dir)
        for i in (0, 7, 23):
            for j in (0, 11, 59):
                ray = hg.GeodesicRay(p, np.concatenate([[0.0], dirs[i]]))
                t = vis.ray_grain_hit(ray, BallGrain(centers[j], float(g_rad[j])))
                expected = np.inf if t is None else t
                assert matrix[i, j] == pytest.approx(expected, abs=1e-10)


class TestRayHyperplaneHit:
    def test_through_origin(self):
        p = hg.base_point(2)
        plane = Hyperplane(np.array([0.0, 1.0, 0.0]))
        assert vis.ray_hyperplane_hit(hg.GeodesicRay(p, np.array([0.0, 1.0, 0.0])), plane) == 0.0

    def test_offset_along_ray(self, rng):
        for d in (2, 3):
            p = hg.base_point(d)
            w = ps.unit_vectors(d, rng, 1)[0]
            u = np.concatenate([[0.0], w])
            for x in (0.4, 1.7):
                n = ps.normals_from_polar(np.array([x]), w[None, :])[0]
                t = vis.ray_hyperplane_hit(hg.GeodesicRay(p, u), Hyperplane(n))
                assert t == pytest.approx(x, abs=1e-12)

    def test_parallel_escape(self):
        p = hg.base_point(2)
        w = np.array([1.0, 0.0])
        n = ps.normals_from_polar(np.array([0.5]), w[None, :])[0]
        # ray pointing away from the plane never reaches it
        assert vis.ray_hyperplane_hit(hg.GeodesicRay(p, np.array([0.0, -1.0, 0.0])), Hyperplane(n)) is None

    def test_crossing_point_is_on_plane(self, rng):
        count = 0
        while count < 100:
            x = rng.uniform(0.1, 2.0)
            w = ps.unit_vectors(2, rng, 1)[0]
            n = ps.normals_from_polar(np.array([x]), w[None, :])[0]
            u = np.concatenate([[0.0], ps.unit_vectors(2, rng, 1)[0]])
            t = vis.ray_hyperplane_hit(hg.GeodesicRay(hg.base_point(2), u), Hyperplane(n))
            if t is None:
                continue
            count += 1
            point = hg.exp_map(hg.base_point(2), u, t)
            assert abs(hg.minkowski_dot(point, n)) < 1e-9
            assert t >= x - 1e-9  # cannot cross before the plane's distance


def dense_grain_hits(dirs, g_dist, g_dir, g_rad):
    """Reference: the hit formula evaluated on every ray x grain pair."""
    cos_t = np.clip(dirs @ g_dir.T, -1.0, 1.0)
    sinh_d = np.sinh(g_dist)
    c = np.sqrt(1.0 + sinh_d**2 * (1.0 - cos_t**2))
    cosh_r = np.cosh(g_rad)
    hit = (cos_t > 0.0) & (c <= cosh_r)
    a_plus_b = np.cosh(g_dist) + sinh_d * cos_t
    a_minus_b = np.exp(-g_dist) + sinh_d * (1.0 - cos_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = 0.5 * np.log(a_plus_b / a_minus_b)
        t = t0 - np.arccosh(np.maximum(1.0, cosh_r / c))
    return np.where(hit, np.maximum(t, 0.0), np.inf)


def dense_plane_hits(dirs, normals):
    """Reference: the crossing formula evaluated on every ray x plane pair."""
    un = dirs @ normals[:, 1:].T
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = normals[:, 0] / un
        t = np.arctanh(np.clip(rho, 0.0, 1.0 - 1e-16))
    return np.where((rho > 0.0) & (rho < 1.0), t, np.inf)


def _at_angle(u, theta, rng):
    """Unit vector at angle theta from the unit vector u."""
    w = rng.standard_normal(len(u))
    w -= (w @ u) * u
    return math.cos(theta) * u + math.sin(theta) * w / np.linalg.norm(w)


class TestSparseKernels:
    """The sparse kernels return exactly the dense formulas' matrices, inf included."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grains_on_cone_boundary(self, d, rng):
        dirs = ps.unit_vectors(d, rng, 30)
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
            dirs = ps.unit_vectors(d, rng, n_rays)
            g_rad = rng.uniform(0.05, 0.6, n_grains)
            g_dist = g_rad + rng.exponential(1.5, n_grains)
            g_dir = ps.unit_vectors(d, rng, n_grains) if n_grains else np.empty((0, d))
            got = vis.grain_hits_from_base(dirs, g_dist, g_dir, g_rad)
            assert got.shape == (n_rays, n_grains)
            assert np.array_equal(got, dense_grain_hits(dirs, g_dist, g_dir, g_rad))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grain_straight_ahead_cosine_above_one(self, d, rng):
        # grains centered on the rays themselves: dirs @ dirs.T rounds above 1 on some diagonals
        dirs = ps.unit_vectors(d, rng, 200)
        cos = np.einsum("ij,ij->i", dirs, dirs)
        assert (cos > 1.0).any()
        g_dist, g_rad = rng.uniform(0.6, 3.0, 200), np.full(200, 0.5)
        got = vis.grain_hits_from_base(dirs, g_dist, dirs, g_rad)
        assert np.array_equal(got, dense_grain_hits(dirs, g_dist, dirs, g_rad))
        np.testing.assert_allclose(np.diag(got), g_dist - g_rad, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_planes(self, d, rng):
        dirs = ps.unit_vectors(d, rng, 200)
        signed = ps.sample_hyperplanes(d, 2.0, 3.0, rng).normals
        assert (signed[:, 0] < 0).any() and (signed[:, 0] > 0).any()
        one_sided = ps.normals_from_polar(rng.exponential(1.0, 300), ps.unit_vectors(d, rng, 300))
        # un = 0 exactly: ray 0 along e_1, normals along e_2 with offsets of both signs
        dirs[0] = np.eye(d)[0]
        flat = ps.normals_from_polar(np.array([0.3, -0.3]), np.eye(d)[[1, 1]])
        assert (dirs[:1] @ flat[:, 1:].T == 0.0).all()
        for normals in (signed, one_sided, flat, np.empty((0, d + 1))):
            for rays in (dirs, dirs[:1]):
                got = vis.plane_hits_from_base(rays, normals)
                assert got.shape == (len(rays), len(normals))
                assert np.array_equal(got, dense_plane_hits(rays, normals))


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
        out = vis.visibility_range(model, np.array([0.0, 1.0, 0.0]), 5.0)
        assert out.censored and out.value == 5.0

    def test_single_grain_ahead(self):
        model = _single_grain_model()
        out = vis.visibility_range(model, np.array([0.0, 1.0, 0.0]), 4.0)
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
            u = np.concatenate([[0.0], ps.unit_vectors(2, rng, 1)[0]])
            assert vis.visibility_range(more, u, 4.0).value <= vis.visibility_range(model, u, 4.0).value + 1e-12

    def test_window_guard(self):
        model = _single_grain_model(window=4.0)
        with pytest.raises(ValueError, match="safe window"):
            vis.visibility_range(model, np.array([0.0, 1.0, 0.0]), 4.7)

    def test_requires_conditioned(self):
        model = _single_grain_model()
        model.conditioned = False
        with pytest.raises(ValueError, match="conditioned"):
            vis.visibility_range(model, np.array([0.0, 1.0, 0.0]), 3.0)


class TestVisibleVolumeOnce:
    def test_empty_model_gives_ball(self, rng):
        model = HyperplaneSample(d=2, normals=np.empty((0, 3)), window_radius=5.0)
        value = vis.visible_volume_once(model, 64, rng, truncate_at=3.0)
        assert value == pytest.approx(float(cf.ball_volume(2, 3.0)), rel=1e-12)

    def test_single_grain_angular_quadrature(self):
        # oracle: integrate the exact per-direction profile over the angle
        model = _single_grain_model(d_c=2.0, radius=0.8, window=3.0)
        truncate = 3.0
        p = hg.base_point(2)

        def range_at(phi):
            u = np.array([0.0, math.cos(phi), math.sin(phi)])
            t = vis.ray_grain_hit(hg.GeodesicRay(p, u), BallGrain(model.centers[0], 0.8))
            return min(truncate, truncate if t is None else t)

        oracle, _ = quad(lambda phi: float(cf.sinh_integral(2, range_at(phi))), 0, 2 * math.pi, limit=400)
        reps = np.array([vis.visible_volume_once(model, 400, stream(21, i), truncate) for i in range(60)])
        stderr = reps.std(ddof=1) / math.sqrt(len(reps))
        assert abs(reps.mean() - oracle) < 4 * stderr

    def test_two_batches_consistent(self):
        model = _single_grain_model(d_c=1.5, radius=0.6, window=3.0)
        a = np.array([vis.visible_volume_once(model, 200, stream(22, i), 2.5) for i in range(40)])
        b = np.array([vis.visible_volume_once(model, 200, stream(23, i), 2.5) for i in range(40)])
        stderr = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) < 4 * stderr

    def test_truncation_monotone_same_rays(self):
        model = _single_grain_model(d_c=1.5, radius=0.6, window=3.0)
        v1 = vis.visible_volume_once(model, 300, stream(24, 0), 1.5)
        v2 = vis.visible_volume_once(model, 300, stream(24, 0), 2.5)
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
            u = ps.unit_vectors(d, rng, 1)[0]
            windowed[i] = vis.visibility_range(model, np.concatenate([[0.0], u]), cutoff).value
        assert ks_2samp(streamed, windowed).pvalue > 0.01

    def test_exponential_law_small(self):
        from hypervis.harness import ks_exponential

        d, gamma, law = 2, 1.2, cf.UniformRadius(0.1, 0.6)
        rate = gamma * cf.grain_moments(d, law).v_dm1_star
        values, censored = vis.sample_visibility_ranges(d, gamma, law, 3000, 10.0, seed=33)
        assert ks_exponential(values[~censored], rate).passed

    def test_direction_invariance(self):
        d, gamma, law = 2, 1.5, cf.FixedRadius(0.5)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        a, _ = vis.sample_visibility_ranges(d, gamma, law, 2000, 10.0, seed=34, direction=e1)
        b, _ = vis.sample_visibility_ranges(d, gamma, law, 2000, 10.0, seed=35, direction=e2)
        assert ks_2samp(a, b).pvalue > 0.01

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
        with pytest.raises(ValueError, match="threshold gamma"):
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


# Outputs of the dense sweep that ran every ray against every block, at fixed seeds.
# Skipping rays that a block cannot shorten changes which rays enter the ray x obstacle
# product, so BLAS may round cos(theta) differently by an ulp; a grazing hit magnifies that
# through arccosh, hence the relative tolerance. The censored counts must match exactly.
PINNED_ESTIMATES = {
    "visvol-d2": (vis.estimate_visible_volume, (2, 2.5, cf.FixedRadius(0.5), 40, 100, None, 4.0, 7),
                  1.1805029246328944, 0.25256421255594425, 2),
    "visvol-d2-uniform-truncated": (vis.estimate_visible_volume,
                                    (2, 1.2, cf.UniformRadius(0.1, 0.6), 40, 100, 3.0, 4.0, 8),
                                    9.915268406077889, 0.8109589446364148, 125),
    "visvol-d3": (vis.estimate_visible_volume, (3, 4.0, cf.FixedRadius(0.5), 20, 50, 1.5, 1.5, 9),
                  0.7567249314277686, 0.17731392160528853, 7),
    "zero-cell-d2": (vis.estimate_zero_cell_volume, (2, 3.0, 40, 100, 3.0, 10),
                     2.4065749186728747, 0.560475819826022, 15),
    "zero-cell-d3": (vis.estimate_zero_cell_volume, (3, 6.0, 20, 50, 1.0, 11),
                     0.4259809140791303, 0.0846645065804807, 26),
}

# Outputs of the capped single-ray sweep at fixed seeds, pinned after its two-sample KS tests
# against the uncapped reference (TestRounds) and the band oracle (TestCappedSweep) passed.
PINNED_RANGES = {
    "boolean-d2": (vis.sample_visibility_ranges, (2, 1.5, cf.FixedRadius(0.5), 200, 2.0, 12), 127.30908485633364, 10),
    "boolean-d3": (vis.sample_visibility_ranges, (3, 4.0, cf.FixedRadius(0.5), 100, 1.0, 13), 29.054113299317496, 4),
    "zero-cell-d2": (vis.sample_zero_cell_ranges, (2, 2.0, 200, 2.0, 14), 142.92225400685737, 13),
    "zero-cell-d3": (vis.sample_zero_cell_ranges, (3, 6.0, 100, 1.0, 15), 36.808111215372655, 8),
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


# Reference: the sweep one replication at a time, with the annulus samplers and the dense
# kernels it used before replication rounds. Replication i draws its rays and then, block
# by block, its obstacles (count, distances, directions, radii) from stream(seed, i).


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
    radii = law.sample_radii(rng, n)
    keep = dists > radii
    return dists[keep], dirs[keep], radii[keep]


def _ref_hyperplane_annulus(d, gamma, t_lo, t_hi, rng):
    n = _ref_poisson(rng, gamma * (ps.plane_measure(d, t_hi) - ps.plane_measure(d, t_lo)))
    if n == 0:
        return np.empty(0), np.empty((0, d + 1))
    dists = _ref_profile_annulus(d - 1, 1, t_lo, t_hi, rng, n)
    return dists, ps.normals_from_polar(dists, _ref_unit_vectors(d, rng, n))


def _ref_sweep(d, gamma, scale, sign, margin, annulus, hits, dirs, cutoff, rng, block_target):
    n = d - 1
    per_block = block_target / (gamma * scale)
    best = np.full(len(dirs), cutoff)
    t_lo = 0.0
    while True:
        stop_at = float(best.max()) + margin
        if t_lo >= stop_at - 1e-12:
            break
        reach = float(cf.power_integral_inverse(n, cf.power_integral(n, t_lo, sign) + per_block, sign))
        t_hi = max(min(stop_at, reach), t_lo + 1e-6)
        obstacles = annulus(t_lo, t_hi, rng)
        if len(obstacles[0]):
            live = np.flatnonzero(best > t_lo - margin - 1e-9)
            best[live] = np.minimum(best[live], hits(dirs[live], *obstacles).min(axis=1))
        t_lo = t_hi
    return best


def reference_ranges(d, gamma, law, n_reps, n_rays, cutoff, seed, direction=None, block_target=None):
    """(n_reps, n_rays) ranges through the Boolean model (law given) or the hyperplanes (law None),
    in blocks of block_target expected obstacles (by default the module's _BLOCK_TARGET)."""
    block_target = vis._BLOCK_TARGET if block_target is None else block_target
    out = np.empty((n_reps, n_rays))
    for i in range(n_reps):
        rng = stream(seed, i)
        dirs = _ref_unit_vectors(d, rng, n_rays) if direction is None else np.asarray(direction, float)[None, -d:]
        if law is None:
            annulus = partial(_ref_hyperplane_annulus, d, gamma)
            out[i] = _ref_sweep(d, gamma, 2.0, 1, 0.0, annulus, lambda u, x, n: dense_plane_hits(u, n), dirs, cutoff, rng, block_target)
        else:
            annulus = partial(_ref_boolean_annulus, d, gamma, law)
            out[i] = _ref_sweep(d, gamma, cf.omega(d), -1, law.max_radius, annulus, dense_grain_hits, dirs, cutoff, rng, block_target)
    return out


ROUND = min(vis._ROUND_REPS, vis._ROUND_PAIRS // vis._CAP_BLOCK_TARGET)  # replications per round with one ray each


def _censored_cutoff(rate):
    """A cutoff that censors about a fifth of the ranges of an Exp(rate) law."""
    return math.log(5.0) / rate


@pytest.fixture(params=["blocks-256", "blocks-2"])
def round_size(request, monkeypatch):
    """Replications per single-ray round: the module's (blocks of _BLOCK_TARGET expected obstacles for
    many rays, _CAP_BLOCK_TARGET in a single ray's cap), or 16 with blocks of 2 expected obstacles.

    Small blocks give every replication many blocks, many of them empty, and
    replications that end at different blocks of one round.
    """
    if request.param == "blocks-2":
        monkeypatch.setattr(vis, "_BLOCK_TARGET", 2)
        monkeypatch.setattr(vis, "_CAP_BLOCK_TARGET", 2)
        monkeypatch.setattr(vis, "_ROUND_PAIRS", 32)
    return min(vis._ROUND_REPS, vis._ROUND_PAIRS // vis._CAP_BLOCK_TARGET)


@lru_cache(maxsize=None)
def _single_ray_reference(d, gamma, law, cutoff, seed, fixed):
    """Ranges of 800 replications of the uncapped reference sweep with one ray each, in blocks of 256."""
    direction = np.eye(d)[d - 1] if fixed else None
    return reference_ranges(d, gamma, law, 800, 1, cutoff, seed, direction, block_target=256)[:, 0]


def _check_single_ray(sample, ref, cutoff, seed, direction, round_size):
    """The ranges of 800 replications, sample(800, cutoff, seed, direction), follow the law of the reference
    ranges. For each n of the grid below 800 (all of it with small rounds; test_prefix_of_a_longer_run runs
    the module's rounds), the first n are bit for bit those of a run of n, whether n spans part of a round or
    several."""
    values, censored = sample(800, cutoff, seed, direction)
    assert np.array_equal(censored, values >= cutoff - 1e-12)
    assert censored.any() and not censored.all()
    for n in (1, round_size - 1, round_size, round_size + 1, 2 * round_size + 1):
        if n < len(values):
            head, head_censored = sample(n, cutoff, seed, direction)
            assert np.array_equal(head, values[:n]) and np.array_equal(head_censored, censored[:n])
    assert ks_2samp(values, ref).pvalue > 0.01


class TestRounds:
    """Replication rounds return bit for bit the ranges of sweeping one replication at a time, whatever
    the round size; single rays sweep only their direction cap, so their ranges follow the reference's law."""

    def test_round_size(self):
        assert ROUND == 512
        assert max(1, vis._ROUND_PAIRS // (64 * vis._BLOCK_TARGET)) == 1  # estimators with 64+ rays: one per round

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("law", [cf.FixedRadius(0.5), cf.UniformRadius(0.1, 0.6)], ids=["fixed", "uniform"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_visibility_ranges(self, d, law, fixed, round_size):
        v_star = cf.grain_moments(d, law).v_dm1_star
        gamma = 2.0 * (d - 1) / v_star  # rate 2(d-1): a replication of the reference costs a few blocks
        cutoff, seed = _censored_cutoff(gamma * v_star), 60 + d
        ref = _single_ray_reference(d, gamma, law, cutoff, seed + 2000, fixed)
        direction = np.eye(d)[d - 1] if fixed else None
        _check_single_ray(partial(vis.sample_visibility_ranges, d, gamma, law), ref, cutoff, seed, direction, round_size)

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_zero_cell_ranges(self, d, fixed, round_size):
        gamma = 2.0 * (d - 1) / cf.zero_cell_rate(d, 1.0)
        cutoff, seed = _censored_cutoff(cf.zero_cell_rate(d, gamma)), 70 + d
        ref = _single_ray_reference(d, gamma, None, cutoff, seed + 2000, fixed)
        direction = np.eye(d + 1)[1] if fixed else None  # the full tangent form of e_1
        _check_single_ray(partial(vis.sample_zero_cell_ranges, d, gamma), ref, cutoff, seed, direction, round_size)

    def test_prefix_of_a_longer_run(self):
        for sample in (partial(vis.sample_zero_cell_ranges, 3, 6.0),
                       partial(vis.sample_visibility_ranges, 3, 4.0, cf.UniformRadius(0.1, 0.6))):
            values, censored = sample(3 * ROUND + 7, 1.0, 15)
            for m in (5, ROUND + 3, 2 * ROUND - 1):
                head, head_censored = sample(m, 1.0, 15)
                assert np.array_equal(head, values[:m]) and np.array_equal(head_censored, censored[:m])

    @pytest.mark.parametrize("n_rays", [3, 64])  # 3 rays: rounds of 21 replications with dead rays; 64: one per round
    def test_estimators(self, n_rays, round_size):
        law, cutoff = cf.FixedRadius(0.5), 2.5
        for rec, ref, cap in (
            (vis.estimate_visible_volume(2, 2.5, law, 45, n_rays, 2.0, cutoff, 16),
             reference_ranges(2, 2.5, law, 45, n_rays, cutoff, 16), 2.0),
            (vis.estimate_zero_cell_volume(2, 3.0, 45, n_rays, cutoff, 17),
             reference_ranges(2, 3.0, None, 45, n_rays, cutoff, 17), cutoff),
        ):
            rep_vals = [cf.omega(2) * float(np.mean(cf.sinh_integral(2, np.minimum(r, cap)))) for r in ref]
            assert rec.estimate == float(np.mean(rep_vals))
            assert rec.stderr == float(np.std(rep_vals, ddof=1) / math.sqrt(45))
            assert round(rec.censored_fraction * 45 * n_rays) == int(np.sum(ref >= cutoff - 1e-12))

    def test_resource_guard_raises_inside_a_round(self):
        # the 1e-6 floor on a block's width puts ~2e9 expected planes into the first block
        with pytest.raises(ValueError, match="resource guard"):
            vis.sample_zero_cell_ranges(2, 1e15, ROUND + 1, 1.0, 0)
        with pytest.raises(ValueError, match="resource guard"):
            vis.sample_visibility_ranges(2, 1e21, cf.FixedRadius(0.5), ROUND + 1, 1.0, 0)


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

        def counted(d, t_lo, t_hi, rng, size, inner=ps.sample_radial_annulus):
            drawn.append(int(np.sum(size)))
            return inner(d, t_lo, t_hi, rng, size)

        monkeypatch.setattr(ps, "sample_radial_annulus", counted)
        config = ExperimentConfig(quantity="cdf_boolean", d=3, gamma=1.5, law=cf.FixedRadius(0.5), n_reps=2000,
                                  cutoff=8.0, seed=46)
        assert run(config).passed
        assert sum(drawn) < 30 * config.n_reps


class TestFixedDirection:
    @pytest.mark.parametrize(
        "d, direction, match",
        [
            (2, [3.0, 0.0], "unit vector"),
            (2, [0.6, 0.6], "unit vector"),
            (2, [0.0, 1.0, 0.0, 0.0], "2 or 3 entries"),
            (3, [1.0], "3 or 4 entries"),
            (2, [[1.0, 0.0]], "2 or 3 entries"),
            (2, [0.5, 1.0, 0.0], "time component 0"),
            (2, [np.nan, 1.0], "finite"),
            (2, [0.0, np.inf, 0.0], "finite"),
        ],
    )
    def test_invalid_direction_refused(self, d, direction, match):
        with pytest.raises(ValueError, match=match):
            vis.sample_visibility_ranges(d, 1.5, cf.FixedRadius(0.5), 10, 3.0, 3, direction=direction)
        with pytest.raises(ValueError, match=match):
            vis.sample_zero_cell_ranges(d, 2.0, 10, 3.0, 3, direction=direction)

    def test_spatial_and_tangent_forms_agree(self):
        a, _ = vis.sample_zero_cell_ranges(3, 6.0, 20, 1.0, 5, direction=[0.0, 0.6, 0.8])
        b, _ = vis.sample_zero_cell_ranges(3, 6.0, 20, 1.0, 5, direction=[0.0, 0.0, 0.6, 0.8])
        assert np.array_equal(a, b)


class TestStratifiedEstimator:
    def test_matches_plain_estimator_supercritical(self):
        law = cf.FixedRadius(0.5)
        gamma = 2.0
        strat = vis.estimate_visible_volume_stratified(
            2, gamma, law, (2.0, 4.0), band_width=0.5, sims_per_band=4000, n_batches=4, seed=44
        )
        for r, est, err, closed in zip(strat.radii, strat.estimates, strat.stderrs, strat.closed_forms):
            assert abs(est - closed) < 4 * err

    def test_band_survival_matches_rate(self):
        law = cf.FixedRadius(0.5)
        gamma = cf.visibility_threshold(2, 0.5)
        a = gamma * cf.grain_moments(2, law).v_dm1_star
        strat = vis.estimate_visible_volume_stratified(
            2, gamma, law, (3.0,), band_width=0.5, sims_per_band=4000, n_batches=4, seed=45
        )
        expected = math.exp(-a * 0.5)
        assert np.all(np.abs(strat.band_survival - expected) < 5 * math.sqrt(expected * (1 - expected) / 16000))

    def test_radius_grid_validation(self):
        with pytest.raises(ValueError, match="multiple of band_width"):
            vis.estimate_visible_volume_stratified(2, 1.0, cf.FixedRadius(0.5), (1.3,), band_width=0.5)


class TestEstimateRecord:
    def test_z_score_invariant(self):
        # two replications 2.5 and 3.5: estimate 3.0, stderr sqrt(0.5)/sqrt(2) = 0.5
        rec = vis.make_record("q", 2, 1.0, None, [2.5, 3.5], 2.0, seed=1, t0=time.perf_counter(), n_rays=5)
        assert rec.estimate == 3.0 and rec.stderr == pytest.approx(0.5) and rec.n_reps == 2
        assert rec.z_score == pytest.approx(2.0)
        rec2 = vis.make_record("q", 2, 1.0, None, [2.5, 3.5], None, seed=1, t0=time.perf_counter(), n_rays=5)
        assert rec2.z_score is None
