"""Samplers for Poisson point, ball-grain, and hyperplane processes.

Grain centers follow a Poisson process with intensity gamma times hyperbolic
volume; radii are drawn independently from the grain law. Hyperplanes follow
a Poisson process on the invariant hyperplane measure, realized as a uniform
direction plus a signed offset with density proportional to cosh^{d-1}.

Windowed samplers materialize every obstacle that can reach the observation
ball (edge-corrected center window). The annulus samplers carve the same
processes into radial shells so that estimators can sweep outward from the
base point and stop as soon as no farther obstacle can matter; restricting a
Poisson process to a region is again Poisson, so the sweep is exact.

Conditioning the Boolean model on an uncovered base point deletes the grains
containing it, which restricts the Poisson intensity to the complement and is
therefore exact as well; rejection sampling is kept behind a flag as the
cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import GrainLaw, ball_volume, grain_moments, omega, power_integral, power_integral_inverse
from .closedform import sinh_integral  # noqa: F401 (benchmarks/tracer.py wraps it here)

# Refuse samples whose expected obstacle count exceeds this (resource guard).
MAX_EXPECTED_COUNT = 1e8


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

    @property
    def offset(self) -> float:
        """Signed distance of the plane from the base point."""
        return float(np.arcsinh(self.normal[0]))


@dataclass
class BooleanModelSample:
    """One realization of the grain process inside a center window.

    window_radius is the center-window radius R_obs + max grain radius, so
    every grain that can intersect the observation ball of radius R_obs is
    present. centers has shape (n, d+1), radii shape (n,).
    """

    d: int
    centers: np.ndarray
    radii: np.ndarray
    window_radius: float
    max_grain_radius: float
    conditioned: bool

    @property
    def n_grains(self) -> int:
        return len(self.radii)

    @property
    def observation_radius(self) -> float:
        return self.window_radius - self.max_grain_radius

    @property
    def grains(self) -> list[BallGrain]:
        return [BallGrain(c, float(r)) for c, r in zip(self.centers, self.radii)]


@dataclass
class HyperplaneSample:
    """One realization of the hyperplane process meeting B(base, window_radius)."""

    d: int
    normals: np.ndarray
    window_radius: float

    @property
    def n_planes(self) -> int:
        return len(self.normals)

    @property
    def planes(self) -> list[Hyperplane]:
        return [Hyperplane(n) for n in self.normals]


# ---------------------------------------------------------------------------
# Direction and radial sampling
# ---------------------------------------------------------------------------


def unit_vectors(d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """(size, d) array of uniform unit vectors (spatial parts of base tangents)."""
    g = rng.standard_normal((size, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _profile_annulus(n: int, sign: int, t_lo: float, t_hi: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Distances on [t_lo, t_hi] with density proportional to sinh^n (sign -1) or cosh^n (sign +1), by inverse CDF."""
    u = rng.uniform(size=size)
    g_lo, g_hi = power_integral(n, t_lo, sign), power_integral(n, t_hi, sign)
    return power_integral_inverse(n, g_lo + u * (g_hi - g_lo), sign)


def sample_radial_annulus(d: int, t_lo: float, t_hi: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Distances with density proportional to sinh^{d-1} on [t_lo, t_hi]."""
    if not 0 <= t_lo < t_hi:
        raise ValueError("need 0 <= t_lo < t_hi")
    return _profile_annulus(d - 1, -1, t_lo, t_hi, rng, size)


def sample_radial(d: int, r_max: float, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
    """Distance from the base point of a uniform point in B(base, r_max).

    Density sinh^{d-1}(t) / int_0^{r_max} sinh^{d-1}, sampled by inverse CDF.
    """
    if r_max <= 0:
        raise ValueError("r_max must be > 0")
    out = sample_radial_annulus(d, 0.0, r_max, rng, size if size is not None else 1)
    return float(out[0]) if size is None else out


def points_from_polar(dists: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Hyperboloid points at given distances/directions from the base point."""
    out = np.empty((len(dists), dirs.shape[1] + 1))
    out[:, 0] = np.cosh(dists)
    out[:, 1:] = np.sinh(dists)[:, None] * dirs
    return out


def _poisson_count(rng: np.random.Generator, mean: float) -> int:
    if mean > MAX_EXPECTED_COUNT:
        raise ValueError(f"expected obstacle count {mean:.3g} exceeds resource guard {MAX_EXPECTED_COUNT:.0e}")
    return int(rng.poisson(mean))


# ---------------------------------------------------------------------------
# Point and Boolean-model samplers
# ---------------------------------------------------------------------------


def sample_poisson_ball(d: int, gamma: float, r_max: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson(gamma * volume) many uniform points in B(base, r_max), shape (n, d+1)."""
    if gamma < 0:
        raise ValueError("intensity must be >= 0")
    n = _poisson_count(rng, gamma * float(ball_volume(d, r_max)))
    if n == 0:
        return np.empty((0, d + 1))
    dists = sample_radial_annulus(d, 0.0, r_max, rng, n)
    return points_from_polar(dists, unit_vectors(d, rng, n))


def sample_boolean_annulus(
    d: int,
    gamma: float,
    law: GrainLaw,
    t_lo: float,
    t_hi: float,
    rng: np.random.Generator,
    drop_covering: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grains with center distance in [t_lo, t_hi): (distances, directions, radii).

    With drop_covering, grains containing the base point (distance <= radius)
    are deleted, which conditions the model on an uncovered base point.
    """
    mean = gamma * (float(ball_volume(d, t_hi)) - float(ball_volume(d, t_lo)))
    n = _poisson_count(rng, mean)
    if n == 0:
        empty = np.empty(0)
        return empty, np.empty((0, d)), empty
    dists = sample_radial_annulus(d, t_lo, t_hi, rng, n)
    dirs = unit_vectors(d, rng, n)
    radii = law.sample_radii(rng, n)
    if drop_covering:
        keep = dists > radii
        dists, dirs, radii = dists[keep], dirs[keep], radii[keep]
    return dists, dirs, radii


def sample_boolean(
    d: int,
    gamma: float,
    law: GrainLaw,
    r_obs: float,
    rng: np.random.Generator,
    condition_origin_free: bool = True,
    method: str = "delete",
) -> BooleanModelSample:
    """Boolean-model realization whose grains can reach B(base, r_obs).

    Centers are sampled in B(base, r_obs + max radius); conditioning deletes
    grains covering the base point (method="delete", exact) or resamples whole
    configurations until the base point is uncovered (method="reject", the
    distributional cross-check). Rejection needs e^{gamma E vol(grain)}
    attempts on average and is refused beyond the resource guard.
    """
    if r_obs <= 0:
        raise ValueError("r_obs must be > 0")
    if gamma < 0:
        raise ValueError("intensity must be >= 0")
    if condition_origin_free and method == "reject":
        exponent = gamma * grain_moments(d, law).mean_volume
        if exponent > math.log(MAX_EXPECTED_COUNT):
            raise ValueError(
                f"rejection needs e^{exponent:.3g} expected attempts, beyond resource guard {MAX_EXPECTED_COUNT:.0e}"
            )
    r_cen = r_obs + law.max_radius
    while True:
        dists, dirs, radii = sample_boolean_annulus(
            d, gamma, law, 0.0, r_cen, rng, drop_covering=condition_origin_free and method == "delete"
        )
        if not condition_origin_free or method == "delete" or not np.any(dists <= radii):
            break
    return BooleanModelSample(
        d=d,
        centers=points_from_polar(dists, dirs),
        radii=radii,
        window_radius=r_cen,
        max_grain_radius=law.max_radius,
        conditioned=condition_origin_free,
    )


# ---------------------------------------------------------------------------
# Hyperplane samplers
# ---------------------------------------------------------------------------


def plane_measure(d: int, t):
    """Measure of hyperplanes within distance t of the base point: 2 int_0^t cosh^{d-1}."""
    out = 2.0 * power_integral(d - 1, t, 1)
    return float(out) if out.ndim == 0 else out


def sample_plane_distances(d: int, t_lo: float, t_hi: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Distances with density proportional to cosh^{d-1} on [t_lo, t_hi]."""
    return _profile_annulus(d - 1, 1, t_lo, t_hi, rng, size)


def normals_from_polar(offsets: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Unit normals sinh(x) * base + cosh(x) * direction for signed offsets x."""
    out = np.empty((len(offsets), dirs.shape[1] + 1))
    out[:, 0] = np.sinh(offsets)
    out[:, 1:] = np.cosh(offsets)[:, None] * dirs
    return out


def sample_hyperplane_annulus(
    d: int, gamma: float, t_lo: float, t_hi: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Planes at distance in [t_lo, t_hi) from the base: (distances, unit normals)."""
    mean = gamma * (plane_measure(d, t_hi) - plane_measure(d, t_lo))
    n = _poisson_count(rng, mean)
    if n == 0:
        return np.empty(0), np.empty((0, d + 1))
    dists = sample_plane_distances(d, t_lo, t_hi, rng, n)
    normals = normals_from_polar(dists, unit_vectors(d, rng, n))
    return dists, normals


def sample_hyperplanes(d: int, gamma: float, r_obs: float, rng: np.random.Generator) -> HyperplaneSample:
    """Hyperplane-process realization restricted to planes meeting B(base, r_obs).

    Count is Poisson(gamma * 2 int_0^{r_obs} cosh^{d-1}); each plane takes a
    uniform direction u and a signed offset x with density prop. to
    cosh^{d-1}|x|, giving the normal sinh(x) base + cosh(x) u.
    """
    if r_obs <= 0:
        raise ValueError("r_obs must be > 0")
    mean = gamma * plane_measure(d, r_obs)
    n = _poisson_count(rng, mean)
    if n == 0:
        return HyperplaneSample(d=d, normals=np.empty((0, d + 1)), window_radius=r_obs)
    offsets = sample_plane_distances(d, 0.0, r_obs, rng, n) * rng.choice([-1.0, 1.0], size=n)
    normals = normals_from_polar(offsets, unit_vectors(d, rng, n))
    return HyperplaneSample(d=d, normals=normals, window_radius=r_obs)


# ---------------------------------------------------------------------------
# Fermi-coordinate band sampler (depth-stratified estimators)
# ---------------------------------------------------------------------------


def band_first_touches(
    d: int,
    gamma: float,
    law: GrainLaw,
    s_lo: float,
    s_hi: float,
    n_sims: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First-touch parameters in (s_lo, s_hi] for n_sims independent band experiments.

    Each experiment realizes, for a ray known to be unobstructed up to s_lo,
    exactly those grains whose first contact with the ray lies in the band
    (a Poisson restriction, independent across disjoint bands). Grains are
    sampled in Fermi coordinates along the ray: foot coordinate y uniform,
    fiber distance zeta with density prop. to cosh(zeta) sinh^{d-2}(zeta),
    covering every grain that can first touch inside the band. Entries are
    inf for experiments whose band stays clear.
    """
    m = law.max_radius
    fiber = omega(d - 1) * np.sinh(m) ** (d - 1) / (d - 1)
    width = (s_hi - s_lo) + 2.0 * m
    counts = rng.poisson(gamma * width * fiber, size=n_sims)
    total = int(counts.sum())
    first = np.full(n_sims, np.inf)
    if total == 0:
        return first
    sim_idx = np.repeat(np.arange(n_sims), counts)
    y = rng.uniform(s_lo - m, s_hi + m, size=total)
    zeta = np.arcsinh(rng.uniform(size=total) ** (1.0 / (d - 1)) * np.sinh(m))
    radii = law.sample_radii(rng, total)
    touches = zeta < radii
    # first contact at y - w with cosh(w) = cosh(r)/cosh(zeta)
    w = np.arccosh(np.maximum(1.0, np.cosh(radii[touches]) / np.cosh(zeta[touches])))
    tau = y[touches] - w
    keep = (tau > s_lo) & (tau <= s_hi)
    np.minimum.at(first, sim_idx[touches][keep], tau[keep])
    return first
