"""Monte Carlo check of the intersection density of grain boundaries in the
hyperbolic plane (d = 2 only).

In the hyperboloid model the circle of radius r about c is the linear
condition <p, c> = -cosh r, so two circles cross where two such conditions
meet the sheet <p, p> = -1, p_0 > 0: in two points iff their Gram
determinant, sinh^2 r_i sinh^2 D sin^2 alpha (D the center distance, alpha
the points' angle off the center-to-center direction), is positive. The
estimator draws a round of realizations at once, each from its own
generator and in its own order, pads each realization's grains to one row,
and one kernel call counts the crossing points inside the window for all
grain pairs of the round. It solves only the pairs close enough to cross or
touch, so the counts are those of the solve on every pair. It takes the
round's Gram matrix in tiles of rows of at most _TILE_ENTRIES entries, so
that the memory it holds is bounded whatever the window; a round of the
usual size is one tile. A large run
sweeps its rounds on every CPU it may use, by fanout.map_rounds with the
run's expected grains as its work; the records do not depend on the number
of processes. Higher dimensions would need d mutually
intersecting hyperspheres: out of scope.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from . import closedform, fanout, procsim
from .closedform import GrainLaw, ball_volume
from .rng import stream  # noqa: F401 (benchmarks/tracer.py wraps stream here)
from .visibility import EstimateRecord, check_run, make_record

_TANGENCY_TOL = 1e-12
# Expected grain pairs per round (see _round_size): the round's padded Gram matrix and pair tests
# hold a few floats per pair.
_ROUND_PAIRS = 2**17
# Gram entries per tile of _count_crossings_vectorized, with a few floats each: 4 x _ROUND_PAIRS leaves a
# round of about _ROUND_PAIRS expected pairs one tile (criterion 4's padded rounds hold at most 236,925 entries at
# seed 4042 and 229,957 at seed 6026).
_TILE_ENTRIES = 4 * _ROUND_PAIRS


def _crossing_bound(radii: np.ndarray) -> float:
    """A bound on cosh D beyond which no pair of grains with these radii (> 0) comes within
    _TANGENCY_TOL of crossing, rounding included: (1 + slack) cosh(2m), m the largest radius.

    det = (C+ - cosh D)(cosh D - C-) with C+- = cosh(r_i +- r_j), so past C+ the value
    -sin^2 alpha >= (1 - C+ / cosh D) 2 sinh r_j / (sinh r_i C+) is at least about 2e-9 coth r_i
    at cosh D = (1 + slack) C+, slack 1e-9 cosh(2m) cosh(m) / sinh(r_min). The tolerance,
    2e-12, and the rounding of sin^2 alpha, at most about 1e-15 / sinh^2 r_i, stay below a
    hundredth of that for radii above 1e-4.
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

    C = cosh D comes from one Minkowski Gram product per realization, and a = cosh r,
    sinh r are evaluated once per grain. Only pairs with 1 < C < _crossing_bound(radii) are
    solved: sin^2 alpha = det / (sinh^2 r_i (C^2 - 1)) decides crossing and tangency, with
    det = 1 + 2 C a_i a_j - C^2 - a_i^2 - a_j^2 taken as (sinh r_i sinh r_j)^2 - (C - a_i a_j)^2,
    which keeps its precision for small radii. The points solve both conditions as
    p = a_i c_i + y (c_j - C c_i) +- t n, n normal to both centers; in this basis, which keeps
    its precision for close centers, p_0 = a_i c_i0 + [(C a_i - a_j)(c_j0 - C c_i0)
    +- sqrt(det) (c_i1 c_j2 - c_i2 c_j1)] / (C^2 - 1).

    The product, its near mask and the pairs' geometry are evaluated in tiles of rows i of
    at most _TILE_ENTRIES Gram entries, so the memory a call holds does not grow with the
    square of its grains; a round of about _ROUND_PAIRS expected pairs is one tile. Each
    tile takes its near pairs with i < j, in the order of the whole matrix's, and adds its
    points per realization to the counts.
    """
    lead, m = radii.shape[:-1], radii.shape[-1]
    n_real = math.prod(lead)
    centers, radii = centers.reshape(n_real, m, 3), radii.reshape(n_real, m)
    counts = np.zeros(n_real, dtype=int)
    real = centers[..., 0] > 0.0
    if m < 2 or not real.any():
        return (int(counts[0]) if not lead else counts.reshape(lead)), 0
    bound, cosh_win = _crossing_bound(radii[real]), math.cosh(r_win)
    columns = np.ascontiguousarray(np.swapaxes(centers, -1, -2))
    cosh_r, sinh_r = np.cosh(radii), np.sinh(radii)
    rows = max(1, _TILE_ENTRIES // (n_real * m))

    def tile(lo: int) -> tuple:
        """(points inside window per realization, tangent pairs) of the pairs i < j whose rows i start at lo."""
        cosh_d = (centers[:, lo : lo + rows] * [1.0, -1.0, -1.0]) @ columns
        upper = np.arange(lo, lo + cosh_d.shape[1])[:, None] < np.arange(m)
        rep, i, j = np.unravel_index(np.flatnonzero((cosh_d > 1.0) & (cosh_d < bound) & upper), cosh_d.shape)
        c = cosh_d[rep, i, j]
        del cosh_d, upper  # before the pairs' arrays, which can then reuse their pages
        i += lo
        a_i, a_j, s_i, sinh2_d = cosh_r[rep, i], cosh_r[rep, j], sinh_r[rep, i], c**2 - 1.0
        det = (s_i * sinh_r[rep, j]) ** 2 - (c - a_i * a_j) ** 2
        sin2_a = det / (s_i**2 * sinh2_d)
        crossing = sin2_a > 1.0 - (1.0 - _TANGENCY_TOL) ** 2
        tangent = int(np.count_nonzero(~crossing & (sin2_a >= 1.0 - (1.0 + _TANGENCY_TOL) ** 2)))
        idx = np.flatnonzero(crossing)
        if not len(idx):
            return 0, tangent
        rep, c, a_i, a_j, sinh2_d = rep[idx], c[idx], a_i[idx], a_j[idx], sinh2_d[idx]
        ci, cj = centers[rep, i[idx]], centers[rep, j[idx]]
        base, along = a_i * ci[:, 0], (c * a_i - a_j) * (cj[:, 0] - c * ci[:, 0])
        off = np.sqrt(det[idx]) * (ci[:, 1] * cj[:, 2] - ci[:, 2] * cj[:, 1])
        x0s = (base + (along + off) / sinh2_d, base + (along - off) / sinh2_d)
        return sum(np.bincount(rep[x0 < cosh_win], minlength=n_real) for x0 in x0s), tangent

    tangent = 0
    for lo in range(0, m, rows):  # each tile's arrays are freed before the next tile's product
        points, pairs = tile(lo)
        counts += points
        tangent += pairs
    return (int(counts[0]) if not lead else counts.reshape(lead)), tangent


def _rows(counts: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The rows of flat, counts[i] of them for realization i, as shape (realizations, max count, ...) padded by 0."""
    out = np.zeros((len(counts), counts.max(initial=0)) + flat.shape[1:])
    out[np.arange(out.shape[1]) < counts[:, None]] = flat
    return out


def _expected_grains(gamma: float, law: GrainLaw, r_win: float) -> float:
    """Expected grains of one realization, whose centers lie in B(base, r_win + max radius)."""
    return gamma * float(ball_volume(2, r_win + law.max_radius))


def _round_size(gamma: float, law: GrainLaw, r_win: float) -> int:
    """Realizations per round: about _ROUND_PAIRS expected grain pairs, and at most fanout.ROUND_REPS."""
    grains = _expected_grains(gamma, law, r_win)
    procsim.guard(grains * grains, "expected grain pairs per realization")  # one realization's Gram matrix holds them
    return int(min(fanout.ROUND_REPS, max(1.0, _ROUND_PAIRS // (1.0 + grains) ** 2)))


def check_window(gamma: float, law: GrainLaw, r_win: float, n_reps: int, seed: int) -> None:
    """Refuse before any draw what estimate_intersection_density cannot serve: ValueError, or ResourceGuardError."""
    check_run(gamma, n_reps, seed, r_win=r_win)
    with np.errstate(over="ignore"):  # a window too wide for a float has area inf
        if not (r_win > 0 and ball_volume(2, r_win) > 0):
            raise ValueError(f"rwin must be > 0 with a window area > 0, got {r_win}")
    try:
        density = closedform.intersection_density(2, gamma, law)
    except OverflowError:
        raise ValueError("the intersection density kappa_2 (v* gamma)^2 overflows double precision") from None
    if density < sys.float_info.min:
        raise ValueError(
            f"the intersection density kappa_2 (v* gamma)^2 = {density:.3g} underflows double precision; "
            "every estimate would read 0"
        )
    with np.errstate(over="ignore"):  # such a window holds inf grains, which the resource guard refuses
        _round_size(gamma, law, r_win)


def estimate_intersection_density(
    gamma: float, law: GrainLaw, r_win: float, n_reps: int, seed: int
) -> EstimateRecord:
    """Monte Carlo intersection density in the plane against the closed form.

    Centers are sampled in B(base, r_win + max radius) so every boundary that
    can enter the window is present; the estimate is the mean point count per
    window area over unconditioned realizations. Realization i draws from
    stream(seed, i), whatever round it falls in. The rounds are swept by
    fanout.map_rounds, whose work is n_reps times the expected grains of a
    realization; each round returns its counts and tangent pairs, so the
    record, and the error a tangent pair raises, do not depend on the number
    of processes.
    """
    t0 = time.perf_counter()
    check_window(gamma, law, r_win, n_reps, seed)
    size = _round_size(gamma, law, r_win)
    area = float(ball_volume(2, r_win))
    t_hi = r_win + law.max_radius

    def sweep(rngs: list) -> tuple:
        dists, dirs, radii, grains = procsim.sample_boolean_annulus(
            2, gamma, law, 0.0, [t_hi] * len(rngs), rngs, drop_covering=False
        )
        centers = procsim.points_from_polar(dists, dirs)
        counts, tangent_pairs = _count_crossings_vectorized(_rows(grains, centers), _rows(grains, radii), r_win)
        return counts, [tangent_pairs]

    counts, tangent_pairs = fanout.map_rounds(sweep, seed, n_reps, size, n_reps * _expected_grains(gamma, law, r_win))
    if tangent_pairs.any():
        raise RuntimeError(f"observed {tangent_pairs.sum()} tangent pairs; tangency has probability zero")
    closed = closedform.intersection_density(2, gamma, law)
    return make_record("intersection_density", 2, gamma, law, counts / area, closed, seed, t0)
