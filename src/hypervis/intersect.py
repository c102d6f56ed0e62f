"""Monte Carlo check of the intersection density of grain boundaries in the
hyperbolic plane (d = 2 only).

Two circles with center distance D cross transversally iff
|r1 - r2| < D < r1 + r2; the crossing points sit at angle +-alpha off the
center-to-center direction with
cos(alpha) = (cosh r1 cosh D - cosh r2) / (sinh r1 sinh D),
the hyperbolic law of cosines. The estimator evaluates this for all grain
pairs of a realization at once and counts the crossing points inside the
window. Higher dimensions would need d mutually intersecting hyperspheres
and are out of scope.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import closedform, procsim
from .closedform import GrainLaw, ball_volume
from .rng import stream, streams  # noqa: F401 (benchmarks/tracer.py wraps stream here)
from .visibility import EstimateRecord, check_replications, make_record

_TANGENCY_TOL = 1e-12


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
