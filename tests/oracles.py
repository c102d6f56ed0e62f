"""Reference implementations that only the tests use.

Each oracle computes a quantity of the library by a second, slower route:
scalar closed-form hit tests on one ray and one obstacle, visibility ranges
through materialized window samples, circle-circle intersection points and
their O(n^2) window count, the Poisson point sampler in a ball and rejection
conditioning of the Boolean model, hyperboloid utilities (tangent bases,
rotations, the Poincare-ball distance) that the checks build on, the windowed
estimators one replication at a time, and the band experiments through the
whole Fermi window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypervis import procsim
from hypervis.closedform import ball_volume, grain_moments, omega, sinh_integral
from hypervis.intersect import _TANGENCY_TOL
from hypervis.procsim import BooleanModelSample, HyperplaneSample
from hypervis.rng import stream
from hypervis.visibility import grain_hits_from_base, plane_hits_from_base

from hypgeom import direction_to, dist, exp_map, minkowski_dot, normalize_tangent

# Invariant tolerance for hyperboloid membership and tangency checks.
GEOM_TOL = 1e-9
_HIT_EPS = 1e-12


# ---------------------------------------------------------------------------
# Hyperboloid utilities
# ---------------------------------------------------------------------------


def transport_direction(p, u, t):
    """Tangent of the geodesic exp_p(t u) at its endpoint: cosh(t) u + sinh(t) p."""
    return np.cosh(t) * np.asarray(u, dtype=float) + np.sinh(t) * np.asarray(p, dtype=float)


def tangent_basis(p) -> np.ndarray:
    """Minkowski-orthonormal basis (d rows) of the tangent space at p.

    Gram-Schmidt of the coordinate axes against p; the Minkowski form is
    positive definite on the tangent space, so the usual recursion applies.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    basis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        v = e + minkowski_dot(e, p) * p  # Minkowski projection onto p's complement
        for b in basis:
            v = v - minkowski_dot(v, b) * b
        q = minkowski_dot(v, v)
        if q > 1e-12:
            basis.append(v / np.sqrt(q))
        if len(basis) == n - 1:
            break
    return np.array(basis)


def random_direction(p, rng: np.random.Generator) -> np.ndarray:
    """Unit tangent at p, uniform on the unit sphere of the tangent space.

    A standard Gaussian in tangent coordinates is rotation invariant for the
    induced (Euclidean) metric, so normalizing gives the uniform sphere law.
    """
    p = np.asarray(p, dtype=float)
    d = p.shape[0] - 1
    if p[0] == 1.0 and not p[1:].any():
        u = np.zeros(d + 1)
        g = rng.standard_normal(d)
        u[1:] = g / np.linalg.norm(g)
        return u
    basis = tangent_basis(p)
    g = rng.standard_normal(d)
    return normalize_tangent(g @ basis)


def poincare_dist(z, w):
    """Hyperbolic distance between Poincare-ball points (cross-model oracle)."""
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    zz = np.sum(z * z, axis=-1)
    ww = np.sum(w * w, axis=-1)
    d2 = np.sum((z - w) ** 2, axis=-1)
    return np.arccosh(1.0 + 2.0 * d2 / ((1.0 - zz) * (1.0 - ww)))


def rotate_about_base(x, q: np.ndarray) -> np.ndarray:
    """Apply a spatial orthogonal matrix q (d x d) to the spatial coordinates.

    Rotations about the base point are exactly the isometries fixing it.
    """
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 1:] = x[..., 1:] @ q.T
    return out


@dataclass(frozen=True)
class GeodesicRay:
    """Unit-speed geodesic ray: origin point and unit tangent there."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        if abs(minkowski_dot(self.origin, self.origin) + 1.0) > 1e-6:
            raise ValueError("ray origin is not on the hyperboloid")
        if abs(minkowski_dot(self.origin, self.direction)) > 1e-6:
            raise ValueError("ray direction is not tangent at its origin")

    def point_at(self, t):
        return exp_map(self.origin, self.direction, t)


def assert_point(x, tol: float = GEOM_TOL) -> None:
    """Raise unless x satisfies the hyperboloid invariants."""
    x = np.asarray(x, dtype=float)
    if abs(minkowski_dot(x, x) + 1.0) > tol:
        raise AssertionError(f"<x,x> = {minkowski_dot(x, x)} != -1")
    if x[0] < 1.0 - tol:
        raise AssertionError(f"x_0 = {x[0]} < 1")


def assert_unit_tangent(p, u, tol: float = GEOM_TOL) -> None:
    """Raise unless u is a unit tangent at p."""
    if abs(minkowski_dot(u, u) - 1.0) > tol:
        raise AssertionError(f"<u,u> = {minkowski_dot(u, u)} != 1")
    if abs(minkowski_dot(p, u)) > tol:
        raise AssertionError(f"<p,u> = {minkowski_dot(p, u)} != 0")


# ---------------------------------------------------------------------------
# Single obstacles, Poisson points and rejection conditioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallGrain:
    """One ball grain: hyperboloid center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("grain radius must be > 0")


@dataclass(frozen=True)
class Hyperplane:
    """Totally geodesic hyperplane {x : <x,n> = 0} with unit spacelike normal n."""

    normal: np.ndarray


def grains_of(sample: BooleanModelSample) -> list[BallGrain]:
    """The grains of a window sample, one BallGrain each."""
    return [BallGrain(c, float(r)) for c, r in zip(sample.centers, sample.radii)]


def sample_poisson_ball(d: int, gamma: float, r_max: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson(gamma * volume) many uniform points in B(base, r_max), shape (n, d+1)."""
    if gamma < 0:
        raise ValueError("intensity must be >= 0")
    n = procsim._poisson_count(rng, gamma * float(ball_volume(d, r_max)))
    if n == 0:
        return np.empty((0, d + 1))
    dists = procsim.sample_radial_annulus(d, 0.0, [r_max], [rng], [n])
    return procsim.points_from_polar(dists, procsim.unit_vectors(d, [rng], [n]))


def sample_boolean_rejected(d: int, gamma: float, law, r_obs: float, rng: np.random.Generator) -> BooleanModelSample:
    """procsim.sample_boolean conditioned on an uncovered base point by rejection: whole
    configurations are resampled until no grain covers the base point.

    This needs e^{gamma E vol(grain)} attempts on average and is refused beyond the resource guard.
    """
    exponent = gamma * grain_moments(d, law).mean_volume
    if exponent > math.log(procsim.MAX_EXPECTED_COUNT):
        raise procsim.ResourceGuardError(
            f"rejection needs e^{exponent:.3g} expected attempts, beyond resource guard {procsim.MAX_EXPECTED_COUNT:.0e}"
        )
    r_cen = r_obs + law.max_radius
    while True:
        dists, dirs, radii, _ = procsim.sample_boolean_annulus(d, gamma, law, 0.0, [r_cen], [rng], drop_covering=False)
        if not np.any(dists <= radii):
            centers = procsim.points_from_polar(dists, dirs)
            return BooleanModelSample(d, centers, radii, r_cen, law.max_radius, conditioned=True)


# ---------------------------------------------------------------------------
# Scalar hit tests
# ---------------------------------------------------------------------------


def ray_grain_hit(ray: GeodesicRay, grain: BallGrain) -> float | None:
    """Smallest t >= 0 with dist(ray(t), center) <= radius, or None.

    With D the center distance and theta the angle to the center direction,
    the distance along the ray satisfies cosh d(t) = C cosh(t - t0) with
    C = sqrt(1 + sinh^2 D sin^2 theta) and tanh t0 = tanh D cos theta;
    the first boundary crossing is t0 - acosh(cosh r / C).
    """
    d_c = float(dist(ray.origin, grain.center))
    if d_c <= grain.radius:
        return 0.0
    cos_t = float(
        np.clip(
            minkowski_dot(ray.direction, (grain.center - math.cosh(d_c) * ray.origin) / math.sinh(d_c)),
            -1.0,
            1.0,
        )
    )
    if cos_t <= 0.0:
        return None
    sinh_d = math.sinh(d_c)
    c = math.sqrt(1.0 + sinh_d**2 * (1.0 - cos_t**2))
    cosh_r = math.cosh(grain.radius)
    if c > cosh_r:
        return None
    a_plus_b = math.cosh(d_c) + sinh_d * cos_t
    a_minus_b = math.exp(-d_c) + sinh_d * (1.0 - cos_t)
    t0 = 0.5 * math.log(a_plus_b / a_minus_b)
    return max(0.0, t0 - math.acosh(max(1.0, cosh_r / c)))


def ray_hyperplane_hit(ray: GeodesicRay, plane: Hyperplane) -> float | None:
    """Crossing parameter of the ray with the hyperplane, or None.

    The ray cosh(t) p + sinh(t) u meets {<x,n> = 0} where tanh t equals
    rho = -<p,n>/<u,n>; a crossing needs 0 < rho < 1.
    """
    pn = float(minkowski_dot(ray.origin, plane.normal))
    if abs(pn) < _HIT_EPS:
        return 0.0
    un = float(minkowski_dot(ray.direction, plane.normal))
    if un == 0.0:
        return None
    rho = -pn / un
    if 0.0 < rho < 1.0:
        return float(np.arctanh(rho))
    return None


# ---------------------------------------------------------------------------
# Visibility ranges against materialized window samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VisibilitySample:
    """One visibility range; censored means the ray left the window uncovered."""

    value: float
    censored: bool


def _model_polar(model: BooleanModelSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g_dist = np.arccosh(np.maximum(1.0, model.centers[:, 0]))
    sinh_d = np.sinh(g_dist)
    g_dir = model.centers[:, 1:] / np.where(sinh_d > 0, sinh_d, 1.0)[:, None]
    return g_dist, g_dir, model.radii


def _planes_polar(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distances, unit directions) of the planes with unit normals sinh(x) base + cosh(x) u: the plane of
    offset x < 0 and direction u is the plane at distance -x in direction -u."""
    oriented = np.where(normals[:, :1] < 0.0, -normals, normals)
    return np.arcsinh(oriented[:, 0]), oriented[:, 1:] / np.linalg.norm(oriented[:, 1:], axis=1, keepdims=True)


def _safe_cutoff(model: BooleanModelSample | HyperplaneSample) -> float:
    if isinstance(model, BooleanModelSample):
        return model.window_radius - model.max_grain_radius
    return model.window_radius


def _window_ranges(model: BooleanModelSample | HyperplaneSample, dirs: np.ndarray) -> np.ndarray:
    """Ranges of rays from the base point through a window sample; inf where nothing is hit."""
    if isinstance(model, BooleanModelSample):
        if not model.conditioned:
            raise ValueError("visibility needs a sample conditioned on an uncovered base point")
        if model.n_grains:
            return grain_hits_from_base(dirs, *_model_polar(model)).min(axis=1)
    elif model.n_planes:
        return plane_hits_from_base(dirs, *_planes_polar(model.normals)).min(axis=1)
    return np.full(len(dirs), np.inf)


def visibility_range(
    model: BooleanModelSample | HyperplaneSample, u: np.ndarray, cutoff: float
) -> VisibilitySample:
    """Visibility range from the base point in direction u, censored at cutoff.

    u is a unit tangent at the base point, given as a full (d+1)-vector or
    its spatial part. The cutoff must stay inside the simulated window
    (window radius minus the grain-radius edge margin for Boolean samples).
    """
    if cutoff > _safe_cutoff(model) + 1e-12:
        raise ValueError(
            f"cutoff {cutoff} exceeds the safe window {_safe_cutoff(model):.6g} of this sample"
        )
    u = np.asarray(u, dtype=float)[-model.d :]  # the time component of a tangent at the base point is 0
    value = min(cutoff, float(_window_ranges(model, u[None, :])[0]))
    return VisibilitySample(value=value, censored=value >= cutoff - 1e-12)


def visible_volume_once(
    model: BooleanModelSample | HyperplaneSample,
    n_rays: int,
    rng: np.random.Generator,
    truncate_at: float,
) -> float:
    """Unbiased single-realization estimate of the visible volume within truncate_at.

    Polar integration: omega_d times the ray average of
    int_0^{min(range, truncate_at)} sinh^{d-1}.
    """
    if truncate_at > _safe_cutoff(model) + 1e-12:
        raise ValueError(f"truncate_at {truncate_at} exceeds the safe window {_safe_cutoff(model):.6g}")
    d = model.d
    ranges = _window_ranges(model, procsim.unit_vectors(d, [rng], [n_rays]))
    return omega(d) * float(np.mean(sinh_integral(d, np.minimum(ranges, truncate_at))))


# ---------------------------------------------------------------------------
# Circle-circle intersections (d = 2)
# ---------------------------------------------------------------------------


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
    """Intersection points of the two circle boundaries (0, 1, or 2 points).

    Two circles with center distance D cross transversally iff
    |r1 - r2| < D < r1 + r2; the crossing points sit at angle +-alpha off the
    center-to-center direction with
    cos(alpha) = (cosh r1 cosh D - cosh r2) / (sinh r1 sinh D),
    the hyperbolic law of cosines.
    """
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

    grains is a list of BallGrain or a window sample. Window membership is
    strict (boundary points carry no measure); tangency points count once.
    """
    if isinstance(grains, BooleanModelSample):
        grains = grains_of(grains)
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


# ---------------------------------------------------------------------------
# Per-replication windowed estimators
# ---------------------------------------------------------------------------
#
# The intersection-density and segment-crossing estimators before replication
# rounds: replication i samples one window from stream(seed, i) and counts it
# alone, with the crossing formula evaluated on every grain pair.


def count_crossings_dense(centers: np.ndarray, radii: np.ndarray, r_win: float) -> tuple[int, int]:
    """(points inside window, tangent pairs) of one realization, the law of cosines on every pair; d = 2."""
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


def intersection_counts_per_replication(gamma: float, law, r_win: float, n_reps: int, seed: int) -> np.ndarray:
    """Crossing points inside the window of each of n_reps unconditioned realizations; raises on a tangency."""
    counts = np.empty(n_reps)
    tangent_pairs = 0
    for i in range(n_reps):
        sample = procsim.sample_boolean(2, gamma, law, r_win, stream(seed, i), condition_origin_free=False)
        counts[i], t = count_crossings_dense(sample.centers, sample.radii, r_win)
        tangent_pairs += t
    if tangent_pairs:
        raise RuntimeError(f"observed {tangent_pairs} tangent pairs; tangency has probability zero")
    return counts


def segment_crossings_per_replication(d: int, gamma: float, length: float, n_reps: int, seed: int) -> np.ndarray:
    """Planes crossing the segment of the given length along the first axis, in each of n_reps realizations:
    replication i draws from stream(seed, i) the count, the offsets and the directions of its planes."""
    direction = np.zeros(d)
    direction[0] = 1.0
    counts = np.zeros(n_reps)
    for i in range(n_reps):
        rng = stream(seed, i)
        n = int(rng.poisson(gamma * procsim.plane_measure(d, length)))
        if n:
            offsets = procsim.sample_plane_distances(d, 0.0, [length], [rng], [n])
            hits = plane_hits_from_base(direction[None, :], offsets, procsim.unit_vectors(d, [rng], [n]))
            counts[i] = np.sum(hits[0] <= length)
    return counts


# ---------------------------------------------------------------------------
# Fermi-window band sampler
# ---------------------------------------------------------------------------


def fermi_band_first_touches(d: int, gamma: float, law, s_lo: float, s_hi: float, n_sims: int, rng) -> np.ndarray:
    """procsim.band_first_touches by the whole Fermi window, with the contact geometry.

    Each experiment draws its own Poisson count of the window's grains
    (procsim.band_grains): foot y uniform on [s_lo - m, s_hi + m], fiber
    distance zeta with density prop. to cosh(zeta) sinh^{d-2}(zeta) below the
    largest radius m, and a radius. A grain with zeta < r first touches the
    ray at y - w, cosh w = cosh r / cosh zeta; the experiment keeps its least
    touch inside (s_lo, s_hi].
    """
    m = law.max_radius
    counts = rng.poisson(procsim.band_grains(d, gamma, law, s_lo, s_hi, n_sims), size=n_sims)
    total = int(counts.sum())
    first = np.full(n_sims, np.inf)
    if total == 0:
        return first
    sim_idx = np.repeat(np.arange(n_sims), counts)
    y = rng.uniform(s_lo - m, s_hi + m, size=total)
    zeta = np.arcsinh(rng.uniform(size=total) ** (1.0 / (d - 1)) * np.sinh(m))
    radii = law.sample_radii([rng], [total])
    touches = zeta < radii
    w = np.arccosh(np.maximum(1.0, np.cosh(radii[touches]) / np.cosh(zeta[touches])))
    tau = y[touches] - w
    keep = (tau > s_lo) & (tau <= s_hi)
    np.minimum.at(first, sim_idx[touches][keep], tau[keep])
    return first
