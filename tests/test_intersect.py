import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hypervis import closedform as cf
from hypervis import fanout, intersect
from hypervis import procsim as ps
from hypervis.rng import stream
from hypervis.visibility import make_record

import hypgeom as hg
from conftest import random_point, random_rotation, record_and_values
from oracles import (
    BallGrain,
    circle_intersection,
    count_crossings_dense,
    count_intersections_in_window,
    intersection_counts_per_replication,
    perp_tangent,
    rotate_about_base,
)


def _grain_at(t, phi, radius):
    u = np.array([0.0, math.cos(phi), math.sin(phi)])
    return BallGrain(hg.exp_map(hg.base_point(2), u, t), radius)


class TestCircleIntersection:
    def test_disjoint(self):
        g1 = _grain_at(0.0, 0.0, 0.3)
        g2 = _grain_at(2.0, 0.0, 0.3)
        assert circle_intersection(g1, g2) == []

    def test_nested(self):
        g1 = _grain_at(0.1, 0.0, 1.5)
        g2 = _grain_at(0.2, 0.3, 0.2)
        assert circle_intersection(g1, g2) == []

    def test_defining_property(self, rng):
        found = 0
        while found < 200:
            g1 = BallGrain(random_point(2, rng, 2.0), rng.uniform(0.2, 1.0))
            g2 = BallGrain(random_point(2, rng, 2.0), rng.uniform(0.2, 1.0))
            points = circle_intersection(g1, g2)
            if len(points) != 2:
                continue
            found += 1
            for x in points:
                assert hg.dist(x, g1.center) == pytest.approx(g1.radius, abs=1e-8)
                assert hg.dist(x, g2.center) == pytest.approx(g2.radius, abs=1e-8)

    def test_law_of_cosines_configuration(self):
        # centers one unit apart, equal radii 0.6: transversal crossing
        g1 = _grain_at(0.0, 0.0, 0.6)
        g2 = _grain_at(1.0, 0.0, 0.6)
        cos_a = math.cosh(0.6) * (math.cosh(1.0) - 1.0) / (math.sinh(0.6) * math.sinh(1.0))
        assert abs(cos_a) < 1.0
        points = circle_intersection(g1, g2)
        assert len(points) == 2

    def test_symmetry_as_point_set(self, rng):
        found = 0
        while found < 50:
            g1 = BallGrain(random_point(2, rng, 2.0), rng.uniform(0.3, 1.0))
            g2 = BallGrain(random_point(2, rng, 2.0), rng.uniform(0.3, 1.0))
            pts_a = circle_intersection(g1, g2)
            if len(pts_a) != 2:
                continue
            found += 1
            pts_b = circle_intersection(g2, g1)
            # match in coordinates; dist() would amplify 1-ulp noise to sqrt scale
            match = [min(float(np.linalg.norm(a - b)) for b in pts_b) for a in pts_a]
            assert max(match) < 1e-8

    def test_external_tangency_single_point(self):
        g1 = _grain_at(0.0, 0.0, 0.5)
        g2 = _grain_at(1.2, 0.0, 0.7)
        points = circle_intersection(g1, g2)
        assert len(points) == 1
        assert hg.dist(points[0], g1.center) == pytest.approx(0.5, abs=1e-9)

    def test_coincident_centers(self):
        g1 = _grain_at(0.0, 0.0, 0.5)
        g2 = _grain_at(0.0, 0.0, 0.8)
        assert circle_intersection(g1, g2) == []

    def test_d3_rejected(self, rng):
        g = BallGrain(hg.base_point(3), 0.5)
        with pytest.raises(ValueError, match="d = 2"):
            circle_intersection(g, g)


class TestCountInWindow:
    def test_empty(self):
        out = count_intersections_in_window([], 2.0)
        assert out.count == 0
        assert out.window_area == pytest.approx(float(cf.ball_volume(2, 2.0)), rel=1e-12)

    def test_two_circles_crossing_inside(self):
        g1 = _grain_at(0.5, 0.0, 0.6)
        g2 = _grain_at(0.5, math.pi, 0.6)
        out = count_intersections_in_window([g1, g2], 3.0)
        assert out.count == 2

    def test_three_circles_six_points(self):
        # pairwise-crossing unit circles whose centers sit one unit from each other
        centers = [_grain_at(0.0, 0.0, 1.0)]
        base = centers[0].center
        u = np.array([0.0, 1.0, 0.0])
        c2 = hg.exp_map(base, u, 1.0)
        # third center: one unit from both, found by rotating the midpoint direction
        w = hg.direction_to(base, c2)
        v = perp_tangent(base, w)
        alpha = math.acos(math.cosh(1.0) * (math.cosh(1.0) - 1.0) / math.sinh(1.0) ** 2)
        c3 = hg.exp_map(base, math.cos(alpha) * w + math.sin(alpha) * v, 1.0)
        grains = [BallGrain(base, 1.0), BallGrain(c2, 1.0), BallGrain(c3, 1.0)]
        assert hg.dist(c2, c3) == pytest.approx(1.0, abs=1e-9)
        out = count_intersections_in_window(grains, 3.5)
        assert out.count == 6

    def test_vectorized_matches_scalar(self, rng):
        # the oracles take the law of cosines, the kernel the linear conditions: radii near 0
        # (uniform:0,1), large radii at low intensity (fixed:2), a wide spread (uniform:0.5,3), and
        # a window a thousandth wide, whose close centers need the kernel's basis c_i, c_j - C c_i
        cases = [
            (1.0, cf.UniformRadius(0.2, 0.8), 2.0, 10),
            (0.5, cf.UniformRadius(0.0, 1.0), 3.0, 5),
            (0.05, cf.FixedRadius(2.0), 2.5, 10),
            (0.3, cf.UniformRadius(0.5, 3.0), 2.0, 2),
            (2e7, cf.FixedRadius(1e-4), 1e-3, 3),
        ]
        for gamma, law, r_win, trials in cases:
            for trial in range(trials):
                sample = ps.sample_boolean(2, gamma, law, r_win, stream(50, trial), condition_origin_free=False)
                scalar = count_intersections_in_window(sample, r_win)
                fast, tangent = intersect._count_crossings_vectorized(sample.centers, sample.radii, r_win)
                assert (fast, tangent) == count_crossings_dense(sample.centers, sample.radii, r_win)
                assert fast == scalar.count
                assert tangent == scalar.tangencies == 0

    def test_rotation_invariance(self, rng):
        sample = ps.sample_boolean(2, 1.2, cf.FixedRadius(0.5), 2.5, stream(51, 0), condition_origin_free=False)
        q = random_rotation(2, rng)
        rotated = [BallGrain(rotate_about_base(c, q), float(r)) for c, r in zip(sample.centers, sample.radii)]
        a = count_intersections_in_window(sample, 2.5)
        b = count_intersections_in_window(rotated, 2.5)
        assert a.count == b.count


class TestEstimateIntersectionDensity:
    def test_quick_z(self):
        rec = intersect.estimate_intersection_density(1.0, cf.FixedRadius(0.5), 3.0, 300, seed=52)
        assert abs(rec.z_score) < 3.5
        assert rec.closed_form == pytest.approx(4 * math.pi * math.sinh(0.5) ** 2, rel=1e-12)

    def test_homogeneity_tracking(self):
        law = cf.FixedRadius(0.5)
        rec1 = intersect.estimate_intersection_density(0.8, law, 2.5, 400, seed=53)
        rec2 = intersect.estimate_intersection_density(1.6, law, 2.5, 400, seed=54)
        assert rec2.closed_form == pytest.approx(4 * rec1.closed_form, rel=1e-12)
        diff = rec2.estimate - 4 * rec1.estimate
        stderr = math.sqrt(rec2.stderr**2 + 16 * rec1.stderr**2)
        assert abs(diff) < 3 * stderr

    def test_one_replication_refused(self):
        with pytest.raises(ValueError, match="n_reps >= 2"):
            intersect.estimate_intersection_density(1.0, cf.FixedRadius(0.5), 2.0, 1, seed=0)

    def test_zero_intensity_limit(self):
        rec = intersect.estimate_intersection_density(1e-3, cf.FixedRadius(0.5), 2.0, 200, seed=55)
        assert rec.estimate < 0.01


def _comparable(record):
    return dataclasses.replace(record, runtime_ms=0.0)


class TestRounds:
    """The rounds give bit for bit the records and counts of one realization per kernel call.

    The round kernel takes cosh D from one Minkowski Gram product, which may round differently
    in the last bit from the reference's spatial product minus x0 x0; a count could move only for
    a crossing point within about 1e-13 of the window's edge, or a pair that close to tangency.
    """

    @pytest.mark.parametrize(
        "gamma, law",
        [(1.0, cf.FixedRadius(0.5)), (0.05, cf.FixedRadius(0.5)), (1.0, cf.UniformRadius(0.2, 0.8)),
         (0.3, cf.UniformRadius(0.5, 3.0))],
        ids=["fixed", "sparse", "uniform", "wide"],
    )
    def test_match_per_replication(self, gamma, law, monkeypatch):
        r_win, seed = 2.0, 60
        size = intersect._round_size(gamma, law, r_win)
        n_max = 2 * size + 1
        reference = intersection_counts_per_replication(gamma, law, r_win, n_max, seed)
        if gamma < 0.1:  # some realizations hold no grain or a single one
            grains = {ps.sample_boolean(2, gamma, law, r_win, stream(seed, i), condition_origin_free=False).n_grains
                      for i in range(n_max)}
            assert {0, 1} <= grains
        area = float(cf.ball_volume(2, r_win))
        for n_reps in sorted({2, size - 1, size, size + 1, n_max} - {0, 1}):
            call = lambda: intersect.estimate_intersection_density(gamma, law, r_win, n_reps, seed)  # noqa: E731
            record, values = record_and_values(intersect, call, monkeypatch)
            assert np.array_equal(values, reference[:n_reps] / area)
            expected = make_record("intersection_density", 2, gamma, law, reference[:n_reps] / area, record.closed_form, seed, 0.0)
            assert _comparable(record) == _comparable(expected)

    def test_round_without_grains(self):
        rec = intersect.estimate_intersection_density(1e-9, cf.FixedRadius(0.5), 2.0, 3, seed=0)
        assert rec.estimate == rec.stderr == 0.0 and rec.n_reps == 3

    @staticmethod
    def _crafted_round():
        """Realization 0: two circles crossing inside the window; 1: a tangent pair; 2: one grain, padded."""
        crossing = [_grain_at(0.5, 0.0, 0.6), _grain_at(0.5, math.pi, 0.6)]
        tangent = [_grain_at(0.0, 0.0, 0.5), _grain_at(1.2, 0.0, 0.7)]
        single = [_grain_at(0.3, 1.0, 0.4)]
        centers, radii = np.zeros((3, 2, 3)), np.zeros((3, 2))
        for k, grains in enumerate((crossing, tangent, single)):
            centers[k, : len(grains)] = [g.center for g in grains]
            radii[k, : len(grains)] = [g.radius for g in grains]
        return centers, radii

    def test_padded_round_kernel(self):
        centers, radii = self._crafted_round()
        counts, tangents = intersect._count_crossings_vectorized(centers, radii, 3.0)
        assert counts.tolist() == [2, 0, 0] and tangents == 1
        assert count_crossings_dense(centers[1], radii[1], 3.0) == (0, 1)

    def test_tangent_pair_raises(self, monkeypatch):
        # the grains of _crafted_round as the sampler draws them: (distances, directions, radii, counts)
        dists, phis, radii = np.array([[0.5, 0.5, 0.0, 1.2, 0.3], [0.0, math.pi, 0.0, 0.0, 1.0], [0.6, 0.6, 0.5, 0.7, 0.4]])
        round_ = dists, np.stack([np.cos(phis), np.sin(phis)], axis=1), radii, np.array([2, 2, 1])
        monkeypatch.setattr(ps, "sample_boolean_annulus", lambda *args, **kwargs: round_)
        with pytest.raises(RuntimeError, match="observed 1 tangent pairs"):
            intersect.estimate_intersection_density(1.0, cf.FixedRadius(0.5), 3.0, 3, seed=0)

    def test_tiles_match_dense(self):
        # 1,261 expected grains, 1.6e6 Gram entries a realization: a round of two takes several tiles
        samples = [ps.sample_boolean(2, 1.0, cf.FixedRadius(4.0), 2.0, stream(61, k), condition_origin_free=False)
                   for k in range(2)]
        m = max(s.n_grains for s in samples)
        assert m * m > 2 * intersect._TILE_ENTRIES
        centers, radii = np.zeros((2, m, 3)), np.zeros((2, m))
        for k, s in enumerate(samples):
            centers[k, : s.n_grains], radii[k, : s.n_grains] = s.centers, s.radii
        dense = [count_crossings_dense(s.centers, s.radii, 2.0) for s in samples]
        counts, tangents = intersect._count_crossings_vectorized(centers, radii, 2.0)
        assert counts.tolist() == [count for count, _ in dense] and tangents == sum(t for _, t in dense) == 0
        for s, expected in zip(samples, dense):
            assert intersect._count_crossings_vectorized(s.centers, s.radii, 2.0) == expected

    def test_wide_window_memory_is_bounded(self):
        # the bound was fixed before the first run, under half the 64.8 MB at which the whole Gram matrix of a
        # realization and its pair indices peaked; the run's work is below the fork threshold, so it is serial
        law, r_win = cf.FixedRadius(4.0), 2.0
        assert 2 * intersect._expected_grains(1.0, law, r_win) < fanout._FORK_MIN_WORK
        tracemalloc.start()
        try:
            record = intersect.estimate_intersection_density(1.0, law, r_win, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6
        assert record.estimate == 9541.907441025218

    @pytest.mark.parametrize("r_win", [0.0, -1.0])
    def test_window_must_be_wider_than_zero(self, r_win, monkeypatch):
        monkeypatch.setattr(ps, "sample_boolean_annulus", None)  # refused before any draw
        with pytest.raises(ValueError, match=f"rwin must be > 0 with a window area > 0, got {r_win}"):
            intersect.estimate_intersection_density(1.0, cf.FixedRadius(0.5), r_win, 3, seed=0)
