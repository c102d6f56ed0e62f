"""Monte Carlo check of the intersection density of grain boundaries in the
hyperbolic plane (d = 2 only).

Two circles with center distance D cross transversally iff
|r1 - r2| < D < r1 + r2; the crossing points sit at angle +-alpha off the
center-to-center direction with
cos(alpha) = (cosh r1 cosh D - cosh r2) / (sinh r1 sinh D),
the hyperbolic law of cosines. The estimator draws a round of realizations
at once, each from its own generator and in its own order
(procsim.sample_boolean_windows), and one kernel call counts the crossing
points inside the window for all grain pairs of the round. The law of
cosines runs only on the pairs whose centers are close enough to cross, by
a test that keeps every pair the formula could call crossing or tangent, so
the counts are those of the formula evaluated on every pair. Higher
dimensions would need d mutually intersecting hyperspheres and are out of
scope.
"""

from __future__ import annotations

import math
import time
from itertools import islice

import numpy as np

from . import closedform, procsim
from .closedform import GrainLaw, ball_volume
from .rng import stream, streams  # noqa: F401 (benchmarks/tracer.py wraps stream here)
from .visibility import _ROUND_REPS, EstimateRecord, check_replications, make_record

_TANGENCY_TOL = 1e-12
# Expected grain pairs per round (see _round_size): the round's padded Gram matrix and pair tests
# hold a few floats per pair.
_ROUND_PAIRS = 2**17


def _crossing_bound(radii: np.ndarray) -> float:
    """A bound on cosh D beyond which no pair of grains with these radii (> 0) comes within
    _TANGENCY_TOL of crossing, rounding included: (1 + slack) cosh(2m), m the largest radius.

    Past cosh D = C = cosh(r_i + r_j), cos alpha - 1 is convex in cosh D and grows
    at least like (cosh D / C - 1) C sinh r_j / (sinh r_i sinh^2(r_i + r_j)); the
    tolerance and the rounding of cos alpha, about 1e-16 coth r_i, add up to
    about 1e-12 coth r_i. So the slack 1e-9 cosh(2m) cosh(m) / sinh(r_min) is
    about a thousand times what is needed.
    """
    r_min, m = float(radii.min()), float(radii.max())
    if not r_min > 0.0:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        cosh_2m = float(np.cosh(2.0 * m))
        return (1.0 + 1e-9 * max(1.0, cosh_2m * float(np.cosh(m) / np.sinh(r_min)))) * cosh_2m


def _count_crossings_vectorized(centers: np.ndarray, radii: np.ndarray, r_win: float):
    """(points inside window, tangent pairs) over the grain pairs of each realization; d = 2.

    centers (..., m, 3) and radii (..., m) hold one realization per leading
    index, padded to m grains by zero centers, which pair with no grain. The
    points come per realization (an int for a single one); the tangent pairs
    are summed over all of them.

    cosh D comes from one Minkowski Gram matrix per realization, and cosh r,
    sinh r are evaluated once per grain. The law of cosines runs only on the
    pairs with 1 < cosh D < _crossing_bound(radii).
    """
    lead, m = radii.shape[:-1], radii.shape[-1]
    n_real = math.prod(lead)
    centers, radii = centers.reshape(n_real, m, 3), radii.reshape(n_real, m)
    counts = np.zeros(n_real, dtype=int)
    real = centers[..., 0] > 0.0
    if m < 2 or not real.any():
        return (int(counts[0]) if not lead else counts.reshape(lead)), 0
    cosh_d = (centers * [1.0, -1.0, -1.0]) @ np.ascontiguousarray(np.swapaxes(centers, -1, -2))
    near = (cosh_d > 1.0) & (cosh_d < _crossing_bound(radii[real]))
    rep, i, j = np.unravel_index(np.flatnonzero(near), near.shape)
    upper = i < j
    rep, i, j = rep[upper], i[upper], j[upper]
    cosh_dij = cosh_d[rep, i, j]
    sinh_dij = np.sqrt(cosh_dij**2 - 1.0)
    cosh_r, sinh_r = np.cosh(radii), np.sinh(radii)
    cos_a = (cosh_r[rep, i] * cosh_dij - cosh_r[rep, j]) / (sinh_r[rep, i] * sinh_dij)
    crossing = np.abs(cos_a) < 1.0 - _TANGENCY_TOL
    tangent = int(np.count_nonzero(~crossing & (np.abs(cos_a) <= 1.0 + _TANGENCY_TOL)))
    idx = np.flatnonzero(crossing)
    if len(idx):
        rep, i, j = rep[idx], i[idx], j[idx]
        ci, cj = centers[rep, i], centers[rep, j]
        cos_a = cos_a[idx]
        sin_a = np.sqrt(1.0 - cos_a**2)
        cosh_dij, sinh_dij = cosh_dij[idx], sinh_dij[idx]
        w = (cj - cosh_dij[:, None] * ci) / sinh_dij[:, None]
        v = np.cross(ci, w)
        v[:, 0] = -v[:, 0]
        norm = np.sqrt(np.sum(v[:, 1:] ** 2, axis=1) - v[:, 0] ** 2)
        v /= norm[:, None]
        base, along = cosh_r[rep, i] * ci[:, 0], sinh_r[rep, i]
        cosh_win = math.cosh(r_win)
        for sign in (1.0, -1.0):
            inside = base + along * (cos_a * w[:, 0] + sign * (sin_a * v[:, 0])) < cosh_win
            counts += np.bincount(rep[inside], minlength=n_real)
    return (int(counts[0]) if not lead else counts.reshape(lead)), tangent


def _round_size(gamma: float, law: GrainLaw, r_win: float) -> int:
    """Realizations per round: about _ROUND_PAIRS expected grain pairs, and at most _ROUND_REPS."""
    grains = gamma * float(ball_volume(2, r_win + law.max_radius))
    if grains**2 > procsim.MAX_EXPECTED_COUNT:  # one realization's Gram matrix holds all its grain pairs
        raise procsim.ResourceGuardError(
            f"{grains**2:.3g} expected grain pairs per realization exceed resource guard {procsim.MAX_EXPECTED_COUNT:.0e}"
        )
    return int(min(_ROUND_REPS, max(1.0, _ROUND_PAIRS // (1.0 + grains) ** 2)))


def estimate_intersection_density(
    gamma: float, law: GrainLaw, r_win: float, n_reps: int, seed: int
) -> EstimateRecord:
    """Monte Carlo intersection density in the plane against the closed form.

    Centers are sampled in B(base, r_win + max radius) so every boundary that
    can enter the window is present; the estimate is the mean point count per
    window area over unconditioned realizations. Realization i draws from
    stream(seed, i), whatever round it falls in.
    """
    check_replications(n_reps)
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):  # a window too wide for a float holds inf grains, which _round_size refuses
        size = _round_size(gamma, law, r_win)
        area = float(ball_volume(2, r_win))
    counts = np.empty(n_reps)
    tangent_pairs = 0
    gens = streams(seed, count=n_reps)
    for first in range(0, n_reps, size):
        rngs = list(islice(gens, size))
        c, t = _count_crossings_vectorized(*procsim.sample_boolean_windows(2, gamma, law, r_win, rngs), r_win)
        counts[first : first + len(rngs)] = c
        tangent_pairs += t
    if tangent_pairs:
        raise RuntimeError(f"observed {tangent_pairs} tangent pairs; tangency has probability zero")
    closed = closedform.intersection_density(2, gamma, law)
    return make_record("intersection_density", 2, gamma, law, counts / area, closed, seed, t0)
