import math

import numpy as np
import pytest

from hypervis.rng import stream

import hypgeom as hg
from conftest import ks_statistic, random_point, random_rotation
from oracles import (
    GeodesicRay,
    assert_point,
    assert_unit_tangent,
    poincare_dist,
    random_direction,
    rotate_about_base,
    transport_direction,
)


class TestMinkowskiDot:
    def test_base_point_norm(self):
        assert hg.minkowski_dot((1, 0, 0), (1, 0, 0)) == -1.0

    def test_point_tangent_orthogonal(self):
        assert hg.minkowski_dot((1, 0, 0), (0, 1, 0)) == 0.0

    def test_boosted_point_against_base(self):
        x = (math.cosh(1), math.sinh(1), 0.0)
        assert hg.minkowski_dot(x, (1, 0, 0)) == pytest.approx(-math.cosh(1), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hg.minkowski_dot((1, 0, 0), (1, 0, 0, 0))


class TestDist:
    def test_coincident(self):
        p = hg.base_point(3)
        assert hg.dist(p, p) == 0.0

    def test_unit_speed(self, rng):
        for d in (2, 3, 4):
            p = random_point(d, rng)
            u = random_direction(p, rng)
            for t in (0.0, 0.3, 1.7, 5.0):
                assert hg.dist(p, hg.exp_map(p, u, t)) == pytest.approx(t, abs=1e-9)

    def test_boosted_distance(self):
        p = hg.base_point(2)
        x = np.array([math.cosh(2), math.sinh(2), 0.0])
        assert hg.dist(p, x) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(200):
            x, y, z = (random_point(3, rng) for _ in range(3))
            assert hg.dist(x, y) == pytest.approx(hg.dist(y, x), abs=1e-9)
            assert hg.dist(x, z) <= hg.dist(x, y) + hg.dist(y, z) + 1e-9


class TestExpMap:
    def test_zero_is_identity(self, rng):
        p = random_point(2, rng)
        u = random_direction(p, rng)
        np.testing.assert_allclose(hg.exp_map(p, u, 0.0), p, atol=1e-12)

    def test_base_point_formula(self):
        out = hg.exp_map(hg.base_point(2), np.array([0.0, 1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [math.cosh(1), math.sinh(1), 0.0], atol=1e-12)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="t >= 0"):
            hg.exp_map(hg.base_point(2), np.array([0.0, 1.0, 0.0]), -0.1)

    def test_result_on_hyperboloid(self, rng):
        for _ in range(50):
            p = random_point(3, rng)
            u = random_direction(p, rng)
            assert_point(hg.exp_map(p, u, rng.uniform(0, 8)))

    def test_geodesic_semigroup(self, rng):
        for _ in range(50):
            p = random_point(2, rng)
            u = random_direction(p, rng)
            s, t = rng.uniform(0.1, 2.0, size=2)
            direct = hg.exp_map(p, u, s + t)
            mid = hg.exp_map(p, u, t)
            transported = transport_direction(p, u, t)
            np.testing.assert_allclose(hg.exp_map(mid, transported, s), direct, atol=1e-8)


class TestDirectionTo:
    def test_roundtrip(self, rng):
        for d in (2, 3):
            for _ in range(50):
                p = random_point(d, rng)
                q = random_point(d, rng)
                u = hg.direction_to(p, q)
                assert_unit_tangent(p, u, tol=1e-8)
                np.testing.assert_allclose(hg.exp_map(p, u, hg.dist(p, q)), q, atol=1e-8)

    def test_degenerate(self):
        p = hg.base_point(2)
        with pytest.raises(ValueError, match="degenerate"):
            hg.direction_to(p, p)


class TestRandomDirection:
    def test_invariants(self, rng):
        for d in (2, 3, 5):
            p = random_point(d, rng)
            for _ in range(20):
                assert_unit_tangent(p, random_direction(p, rng))

    def test_mean_vanishes_at_base(self):
        rng = stream(7)
        n = 100_000
        g = rng.standard_normal((n, 2))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert np.all(np.abs(dirs.mean(axis=0)) < 4.0 / math.sqrt(n))

    def test_polar_angle_uniform(self):
        rng = stream(8)
        n = 10_000
        angles = np.array(
            [math.atan2(*random_direction(hg.base_point(2), rng)[1:][::-1]) % (2 * math.pi) for _ in range(n)]
        )
        stat = ks_statistic(angles, lambda x: x / (2 * math.pi))
        assert stat < 1.63 / math.sqrt(n)


class TestPoincare:
    def test_base_maps_to_origin(self):
        np.testing.assert_allclose(hg.to_poincare(hg.base_point(3)), 0.0, atol=1e-15)

    def test_radial_image(self):
        x = np.array([math.cosh(1), math.sinh(1), 0.0])
        np.testing.assert_allclose(hg.to_poincare(x), [math.tanh(0.5), 0.0], atol=1e-12)

    def test_inside_unit_ball_and_injective(self, rng):
        pts = [random_point(2, rng, r_max=8.0) for _ in range(100)]
        images = np.array([hg.to_poincare(x) for x in pts])
        assert np.all(np.linalg.norm(images, axis=1) < 1.0)
        pair_dists = np.linalg.norm(images[:, None, :] - images[None, :, :], axis=-1)
        assert np.min(pair_dists[np.triu_indices(100, k=1)]) > 0.0

    def test_cross_model_distance(self, rng):
        for _ in range(100):
            x = random_point(3, rng)
            y = random_point(3, rng)
            dp = poincare_dist(hg.to_poincare(x), hg.to_poincare(y))
            assert dp == pytest.approx(hg.dist(x, y), abs=1e-8)


class TestRotation:
    def test_preserves_distance_and_hyperboloid(self, rng):
        q = random_rotation(3, rng)
        x, y = random_point(3, rng), random_point(3, rng)
        xr, yr = rotate_about_base(x, q), rotate_about_base(y, q)
        assert_point(xr)
        assert hg.dist(xr, yr) == pytest.approx(hg.dist(x, y), abs=1e-9)


class TestGeodesicRay:
    def test_validation(self, rng):
        p = random_point(2, rng)
        u = random_direction(p, rng)
        ray = GeodesicRay(p, u)
        np.testing.assert_allclose(ray.point_at(1.5), hg.exp_map(p, u, 1.5), atol=1e-12)
        with pytest.raises(ValueError, match="tangent"):
            GeodesicRay(p, np.array([1.0, 0.0, 0.0]))
