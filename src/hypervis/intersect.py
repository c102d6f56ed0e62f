"""Circle-circle intersections in the hyperbolic plane and the Monte Carlo
check of the intersection density (d = 2 only).

Two circles with center distance D cross transversally iff
|r1 - r2| < D < r1 + r2; the crossing points sit at angle +-alpha off the
center-to-center direction with
cos(alpha) = (cosh r1 cosh D - cosh r2) / (sinh r1 sinh D),
the hyperbolic law of cosines. Higher dimensions would need d mutually
intersecting hyperspheres and are out of scope.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import closedform, procsim
from .closedform import GrainLaw, ball_volume
from .hypgeom import dist, exp_map, direction_to, minkowski_dot, normalize_tangent
from .procsim import BallGrain, BooleanModelSample
from .rng import stream, streams  # noqa: F401 (benchmarks/tracer.py wraps stream here)
from .visibility import EstimateRecord, check_replications, make_record

_TANGENCY_TOL = 1e-12


@dataclass(frozen=True)
class IntersectionCount:
    """Boundary-intersection points inside a base-centered window."""

    window_radius: float
    count: int
    window_area: float
    tangencies: int = 0


def perp_tangent(point: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """The unit tangent at point orthogonal to tangent (d = 2, up to sign).

    The Euclidean cross product of the two 3-vectors, with the time component
    flipped, is Minkowski-orthogonal to both.
    """
    v = np.cross(point, tangent)
    v[0] = -v[0]
    return normalize_tangent(v)


def circle_intersection(g1: BallGrain, g2: BallGrain) -> list[np.ndarray]:
    """Intersection points of the two circle boundaries (0, 1, or 2 points)."""
    if g1.center.shape[0] != 3:
        raise ValueError("circle_intersection is defined for d = 2 only")
    d_c = float(dist(g1.center, g2.center))
    if d_c < 1e-14:
        return []
    # |cos alpha| > 1 covers both disjoint (D > r1+r2) and nested (D < |r1-r2|) pairs
    cos_a = (math.cosh(g1.radius) * math.cosh(d_c) - math.cosh(g2.radius)) / (
        math.sinh(g1.radius) * math.sinh(d_c)
    )
    if abs(cos_a) > 1.0 + _TANGENCY_TOL:
        return []
    w = direction_to(g1.center, g2.center)
    if abs(cos_a) >= 1.0 - _TANGENCY_TOL:
        u = w if cos_a > 0 else -w
        return [exp_map(g1.center, u, g1.radius)]
    v = perp_tangent(g1.center, w)
    sin_a = math.sqrt(1.0 - cos_a**2)
    return [
        exp_map(g1.center, cos_a * w + sin_a * v, g1.radius),
        exp_map(g1.center, cos_a * w - sin_a * v, g1.radius),
    ]


def count_intersections_in_window(grains, r_win: float) -> IntersectionCount:
    """Boundary-intersection points over unordered grain pairs inside B(base, r_win).

    Window membership is strict (boundary points carry no measure); tangency
    points count once.
    """
    if isinstance(grains, BooleanModelSample):
        grains = grains.grains
    if r_win <= 0:
        raise ValueError("window radius must be > 0")
    cosh_win = math.cosh(r_win)
    count = 0
    tangencies = 0
    for i in range(len(grains)):
        for j in range(i + 1, len(grains)):
            points = circle_intersection(grains[i], grains[j])
            if len(points) == 1:
                tangencies += 1
            count += sum(1 for p in points if p[0] < cosh_win)
    return IntersectionCount(
        window_radius=r_win, count=count, window_area=float(ball_volume(2, r_win)), tangencies=tangencies
    )


def _count_crossings_vectorized(centers: np.ndarray, radii: np.ndarray, r_win: float) -> tuple[int, int]:
    """(points inside window, tangent pairs) over all grain pairs; d = 2."""
    n = len(radii)
    if n < 2:
        return 0, 0
    gram = centers[:, 1:] @ centers[:, 1:].T - np.outer(centers[:, 0], centers[:, 0])
    cosh_d = np.maximum(1.0, -gram)
    iu, ju = np.triu_indices(n, k=1)
    cosh_dij = cosh_d[iu, ju]
    near = cosh_dij > 1.0
    iu, ju, cosh_dij = iu[near], ju[near], cosh_dij[near]
    sinh_dij = np.sqrt(cosh_dij**2 - 1.0)
    r1, r2 = radii[iu], radii[ju]
    cos_a = (np.cosh(r1) * cosh_dij - np.cosh(r2)) / (np.sinh(r1) * sinh_dij)
    crossing = np.abs(cos_a) < 1.0 - _TANGENCY_TOL
    tangent = (np.abs(cos_a) >= 1.0 - _TANGENCY_TOL) & (np.abs(cos_a) <= 1.0 + _TANGENCY_TOL)
    idx = np.flatnonzero(crossing)
    if len(idx) == 0:
        return 0, int(tangent.sum())
    ci, cj = centers[iu[idx]], centers[ju[idx]]
    cos_a = cos_a[idx]
    sin_a = np.sqrt(1.0 - cos_a**2)
    cosh_dij, sinh_dij = cosh_dij[idx], sinh_dij[idx]
    w = (cj - cosh_dij[:, None] * ci) / sinh_dij[:, None]
    v = np.cross(ci, w)
    v[:, 0] = -v[:, 0]
    norm = np.sqrt(np.sum(v[:, 1:] ** 2, axis=1) - v[:, 0] ** 2)
    v /= norm[:, None]
    r1 = radii[iu[idx]]
    base = np.cosh(r1)[:, None] * ci
    along = np.sinh(r1)[:, None]
    x0_plus = base[:, 0] + along[:, 0] * (cos_a * w[:, 0] + sin_a * v[:, 0])
    x0_minus = base[:, 0] + along[:, 0] * (cos_a * w[:, 0] - sin_a * v[:, 0])
    cosh_win = math.cosh(r_win)
    count = int(np.sum(x0_plus < cosh_win) + np.sum(x0_minus < cosh_win))
    return count, int(tangent.sum())


def estimate_intersection_density(
    gamma: float, law: GrainLaw, r_win: float, n_reps: int, seed: int
) -> EstimateRecord:
    """Monte Carlo intersection density in the plane against the closed form.

    Centers are sampled in B(base, r_win + max radius) so every boundary that
    can enter the window is present; the estimate is the mean point count per
    window area over unconditioned realizations.
    """
    check_replications(n_reps)
    t0 = time.perf_counter()
    area = float(ball_volume(2, r_win))
    counts = np.empty(n_reps)
    tangent_pairs = 0
    for i, rng in enumerate(streams(seed, count=n_reps)):
        sample = procsim.sample_boolean(2, gamma, law, r_win, rng, condition_origin_free=False)
        c, t = _count_crossings_vectorized(sample.centers, sample.radii, r_win)
        counts[i] = c
        tangent_pairs += t
    if tangent_pairs:
        raise RuntimeError(f"observed {tangent_pairs} tangent pairs; tangency has probability zero")
    closed = closedform.intersection_density(2, gamma, law)
    return make_record("intersection_density", 2, gamma, law, counts / area, closed, seed, t0)
