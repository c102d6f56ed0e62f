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

The annulus samplers (sample_boolean_annulus, sample_hyperplane_annulus)
serve the many-ray sweep and the intersection density. The cap samplers
(sample_boolean_cap_annuli, sample_hyperplane_cap_annuli) serve a single ray:
they draw only the obstacles whose direction lies in the cap from which the
ray can be reached, each by its distance and the versine of its angle to the
ray, again an exact Poisson restriction. sample_hyperplane_windows serves the
segment crossings. Each of them draws a round of replications at once, from
one generator per replication: each generator makes its own draws in its own
order, and the radial inverse runs once over all of the round's draws. They
return each per-obstacle array flat, the obstacles of the generators
concatenated in generator order, followed by one obstacle count per
generator.

Conditioning the Boolean model on an uncovered base point deletes the grains
containing it, which restricts the Poisson intensity to the complement and is
therefore exact as well (the tests cross-check it against rejection sampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import GrainLaw, ball_volume, omega, power_integral, power_integral_at
from .closedform import power_integral_inverse
from .closedform import sinh_integral  # noqa: F401 (benchmarks/tracer.py wraps it here)

# Refuse samples whose expected obstacle count exceeds this (resource guard).
MAX_EXPECTED_COUNT = 1e8


class ResourceGuardError(ValueError):
    """A sample would hold more obstacles than the resource guard allows; the input asks too much."""


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


@dataclass
class HyperplaneSample:
    """One realization of the hyperplane process meeting B(base, window_radius)."""

    d: int
    normals: np.ndarray
    window_radius: float

    @property
    def n_planes(self) -> int:
        return len(self.normals)


# ---------------------------------------------------------------------------
# Direction and radial sampling
# ---------------------------------------------------------------------------


def unit_vectors(d: int, rng, size) -> np.ndarray:
    """(size, d) array of uniform unit vectors (spatial parts of base tangents).

    rng may be a sequence of generators, with size a count per generator: each
    draws its own vectors, and the rows come back concatenated in generator order.
    """
    if isinstance(rng, np.random.Generator):
        g = rng.standard_normal((size, d))
    else:
        g = np.concatenate([r.standard_normal((s, d)) for r, s in zip(rng, size)])
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _profile_annulus(n: int, sign: int, t_lo: float, t_hi, rng, size) -> np.ndarray:
    """Distances on [t_lo, t_hi] with density proportional to sinh^n (sign -1) or cosh^n (sign +1), by inverse CDF.

    rng may be a sequence of generators, with t_hi and size given per generator:
    each draws the uniforms of its own annulus, one inversion serves all of
    them, and the distances come back concatenated in generator order.
    """
    if isinstance(rng, np.random.Generator):
        rng, t_hi, size = [rng], [t_hi], [size]
    g_lo = power_integral_at(n, t_lo, sign)
    span = np.array([power_integral_at(n, t, sign) for t in t_hi]) - g_lo
    u = np.concatenate([r.uniform(size=s) for r, s in zip(rng, size)])
    return power_integral_inverse(n, g_lo + u * np.repeat(span, size), sign, sizes=size)


def sample_radial_annulus(d: int, t_lo: float, t_hi, rng, size) -> np.ndarray:
    """Distances with density proportional to sinh^{d-1} on [t_lo, t_hi] (per generator: see _profile_annulus)."""
    if not (0 <= t_lo and np.all(t_lo < np.asarray(t_hi))):
        raise ValueError("need 0 <= t_lo < t_hi")
    return _profile_annulus(d - 1, -1, t_lo, t_hi, rng, size)


def points_from_polar(dists: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Hyperboloid points at given distances/directions from the base point."""
    out = np.empty((len(dists), dirs.shape[1] + 1))
    out[:, 0] = np.cosh(dists)
    out[:, 1:] = np.sinh(dists)[:, None] * dirs
    return out


# ---------------------------------------------------------------------------
# Direction caps of a ray
# ---------------------------------------------------------------------------
#
# A ray from the base point meets an obstacle only if the angle theta between
# the ray and the obstacle's direction (a grain's center, a plane's normal
# pointing away from the base point) lies in a cap around the ray. Obstacle
# directions are uniform, so whatever the ray, cos theta has the density
# omega_{d-1}/omega_d (1 - c^2)^{(d-3)/2} on [-1, 1], independent of the
# distance and the radius. Caps and angles are given by their versine
# 1 - cos theta: deep out a cap is narrower than the rounding of cos theta
# near 1 (below 1e-16 beyond t = 19 for planes), while its versine keeps
# full relative precision.


def grain_cap_gap(max_radius: float, t: float) -> float:
    """Versine of the widest angle from a ray at which a grain of radius <= max_radius, centered
    at distance >= t, can meet the ray.

    A hit needs cos theta > 0 and sinh D sin theta <= sinh r, so the versine
    is 1 (the half-sphere) for t <= max_radius, and 1 - sqrt(1 - s^2) with
    s = sinh(max_radius) / sinh(t) beyond.
    """
    s = math.sinh(max_radius) / math.sinh(t) if t > max_radius else 1.0
    return s * s / (1.0 + math.sqrt(1.0 - s * s))


def plane_cap_gap(t):
    """1 - tanh t, vectorized: a plane at distance >= t crosses a ray only if cos theta > tanh t."""
    e = np.exp(-2.0 * np.asarray(t, dtype=float))
    out = 2.0 * e / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def _cap_bound(d: int, gap: float) -> float:
    """The largest (2 - w)^{(d-3)/2}, that is (1 + cos theta)^{(d-3)/2}, over the cap of versines w < gap."""
    return (2.0 if d >= 3 else 2.0 - gap) ** ((d - 3) / 2)


def cap_share(d: int, gap: float) -> float:
    """Share of all directions that cap_versines proposes for the cap of versine gap, 0 < gap <= 1.

    In the versine w = 1 - cos theta the direction density is
    omega_{d-1}/omega_d (w (2 - w))^{(d-3)/2}. The proposal density
    omega_{d-1}/omega_d * M w^{(d-3)/2}, with M the largest (2 - w)^{(d-3)/2}
    on the cap, bounds it there and integrates to
    omega_{d-1}/omega_d * M * 2/(d-1) * gap^{(d-1)/2}. In the caps of
    grain_cap_gap and plane_cap_gap it falls like e^{-(d-1)t}.
    """
    return omega(d - 1) / omega(d) * _cap_bound(d, gap) * 2.0 / (d - 1) * gap ** ((d - 1) / 2)


def cap_versines(d: int, gap: float, rngs, counts) -> tuple[np.ndarray, np.ndarray]:
    """counts[i] proposed versines 1 - cos theta in the cap [0, gap) from generator i, concatenated,
    and which of them to keep.

    Proposals gap U^{2/(d-1)} have density proportional to w^{(d-3)/2}.
    Keeping each with probability (2 - w)^{(d-3)/2} / M thins them to the
    direction density (w (2 - w))^{(d-3)/2}; at d = 3 both are uniform and
    every proposal is kept. So a Poisson number of proposals, of mean
    cap_share times the obstacles of an annulus, keeps exactly the obstacles
    of the cap: a Poisson restriction like the annulus itself.
    """
    rows = 1 if d == 3 else 2
    u = np.concatenate([rng.uniform(size=(rows, c)) for rng, c in zip(rngs, counts)], axis=1)
    versines = gap * u[0] ** (2.0 / (d - 1))
    if d == 3:
        return versines, np.ones(len(versines), dtype=bool)
    return versines, u[1] * _cap_bound(d, gap) < (2.0 - versines) ** ((d - 3) / 2)


def _poisson_count(rng: np.random.Generator, mean: float) -> int:
    if mean > MAX_EXPECTED_COUNT:
        raise ResourceGuardError(f"expected obstacle count {mean:.3g} exceeds resource guard {MAX_EXPECTED_COUNT:.0e}")
    return int(rng.poisson(mean))


def _annulus_counts(gamma: float, scale: float, n: int, sign: int, t_lo: float, t_hi, rngs) -> np.ndarray:
    """One Poisson count per generator, of the obstacles at distance in [t_lo, t_hi[i]) of a process
    with gamma * scale * power_integral(n, t, sign) obstacles within distance t on average."""
    g_lo = power_integral_at(n, t_lo, sign)
    means = [gamma * (scale * power_integral_at(n, t, sign) - scale * g_lo) for t in t_hi]
    return np.array([_poisson_count(rng, mean) for rng, mean in zip(rngs, means)], dtype=int)


def _kept(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """How many draws each generator keeps, of counts[i] draws by generator i concatenated in generator order."""
    return np.bincount(np.repeat(np.arange(len(counts)), counts)[keep], minlength=len(counts))


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


def sample_boolean_cap_annuli(d: int, gamma: float, law: GrainLaw, t_lo: float, t_hi, rngs) -> tuple[np.ndarray, ...]:
    """The grains of sample_boolean_annulus that can meet a ray: (distances, versines, radii, counts).

    The versine is 1 - cos theta, with theta the angle between the ray and the
    grain's center direction. Only grains in the cap of
    grain_cap_gap(law.max_radius, t_lo) are drawn (see cap_versines), and
    grains covering the base point are deleted.
    """
    gap = grain_cap_gap(law.max_radius, t_lo)
    counts = _annulus_counts(gamma, omega(d) * cap_share(d, gap), d - 1, -1, t_lo, t_hi, rngs)
    dists = sample_radial_annulus(d, t_lo, t_hi, rngs, counts)
    versines, keep = cap_versines(d, gap, rngs, counts)
    radii = np.concatenate([law.sample_radii(rng, c) for rng, c in zip(rngs, counts)])
    keep &= dists > radii
    return dists[keep], versines[keep], radii[keep], _kept(counts, keep)


def sample_boolean_annulus(
    d: int,
    gamma: float,
    law: GrainLaw,
    t_lo: float,
    t_hi,
    rngs,
    drop_covering: bool = True,
) -> tuple[np.ndarray, ...]:
    """Grains with center distance in [t_lo, t_hi[i]) from each generator rngs[i]: (distances,
    directions, radii, counts), each generator drawing them in that order after its count.

    With drop_covering, grains containing the base point (distance <= radius)
    are deleted, which conditions the model on an uncovered base point.
    """
    counts = _annulus_counts(gamma, omega(d), d - 1, -1, t_lo, t_hi, rngs)
    dists = sample_radial_annulus(d, t_lo, t_hi, rngs, counts)
    dirs = unit_vectors(d, rngs, counts)
    radii = np.concatenate([law.sample_radii(rng, c) for rng, c in zip(rngs, counts)])
    if not drop_covering:
        return dists, dirs, radii, counts
    keep = dists > radii
    return dists[keep], dirs[keep], radii[keep], _kept(counts, keep)


def sample_boolean(
    d: int,
    gamma: float,
    law: GrainLaw,
    r_obs: float,
    rng: np.random.Generator,
    condition_origin_free: bool = True,
) -> BooleanModelSample:
    """Boolean-model realization whose grains can reach B(base, r_obs).

    Centers are sampled in B(base, r_obs + max radius); conditioning deletes
    the grains covering the base point, which is exact.
    """
    if r_obs <= 0:
        raise ValueError("r_obs must be > 0")
    if gamma < 0:
        raise ValueError("intensity must be >= 0")
    r_cen = r_obs + law.max_radius
    dists, dirs, radii, _ = sample_boolean_annulus(d, gamma, law, 0.0, [r_cen], [rng], condition_origin_free)
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


def sample_plane_distances(d: int, t_lo: float, t_hi, rng, size) -> np.ndarray:
    """Distances with density proportional to cosh^{d-1} on [t_lo, t_hi] (per generator: see _profile_annulus)."""
    return _profile_annulus(d - 1, 1, t_lo, t_hi, rng, size)


def normals_from_polar(offsets: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Unit normals sinh(x) * base + cosh(x) * direction for signed offsets x."""
    out = np.empty((len(offsets), dirs.shape[1] + 1))
    out[:, 0] = np.sinh(offsets)
    out[:, 1:] = np.cosh(offsets)[:, None] * dirs
    return out


def sample_hyperplane_annulus(d: int, gamma: float, t_lo: float, t_hi, rngs) -> tuple[np.ndarray, ...]:
    """Planes at distance in [t_lo, t_hi[i]) from the base, from each generator rngs[i]: (distances,
    unit normals, counts), each generator drawing distances and then directions after its count."""
    counts = _annulus_counts(gamma, 2.0, d - 1, 1, t_lo, t_hi, rngs)
    dists = sample_plane_distances(d, t_lo, t_hi, rngs, counts)
    return dists, normals_from_polar(dists, unit_vectors(d, rngs, counts)), counts


def sample_hyperplane_cap_annuli(d: int, gamma: float, t_lo: float, t_hi, rngs) -> tuple[np.ndarray, ...]:
    """The planes of sample_hyperplane_annulus that can cross a ray: (distances, versines, counts).

    The versine is 1 - cos theta, with theta the angle between the ray and the
    plane's normal direction, oriented away from the base point. Only planes
    in the cap cos theta > tanh t_lo are drawn (see cap_versines).
    """
    gap = plane_cap_gap(t_lo)
    counts = _annulus_counts(gamma, 2.0 * cap_share(d, gap), d - 1, 1, t_lo, t_hi, rngs)
    dists = sample_plane_distances(d, t_lo, t_hi, rngs, counts)
    versines, keep = cap_versines(d, gap, rngs, counts)
    return dists[keep], versines[keep], _kept(counts, keep)


def sample_hyperplanes(d: int, gamma: float, r_obs: float, rng: np.random.Generator) -> HyperplaneSample:
    """Hyperplane-process realization restricted to planes meeting B(base, r_obs).

    Count is Poisson(gamma * 2 int_0^{r_obs} cosh^{d-1}); each plane takes a
    uniform direction u and a signed offset x with density prop. to
    cosh^{d-1}|x|, giving the normal sinh(x) base + cosh(x) u.
    """
    normals, _ = sample_hyperplane_windows(d, gamma, r_obs, [rng])
    return HyperplaneSample(d=d, normals=normals, window_radius=r_obs)


# The signs rng.choice([-1.0, 1.0], size=c) draws, as an index into this: the same draws, at half the cost.
_SIGNS = np.array([-1.0, 1.0])


def sample_hyperplane_windows(d: int, gamma: float, r_obs: float, rngs) -> tuple[np.ndarray, np.ndarray]:
    """sample_hyperplanes for each generator: (unit normals, counts).

    Each generator draws its count, distances, signs and directions in that order.
    """
    if r_obs <= 0:
        raise ValueError("r_obs must be > 0")
    mean = gamma * plane_measure(d, r_obs)
    counts = np.array([_poisson_count(rng, mean) for rng in rngs], dtype=int)
    dists = sample_plane_distances(d, 0.0, [r_obs] * len(rngs), rngs, counts)
    signs = _SIGNS[np.concatenate([rng.integers(0, 2, size=c) for rng, c in zip(rngs, counts)])]
    return normals_from_polar(dists * signs, unit_vectors(d, rngs, counts)), counts


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
    mean = gamma * width * fiber
    if mean * n_sims > MAX_EXPECTED_COUNT:
        raise ResourceGuardError(
            f"expected grain count {mean * n_sims:.3g} of {n_sims} band experiments "
            f"exceeds resource guard {MAX_EXPECTED_COUNT:.0e}"
        )
    counts = rng.poisson(mean, size=n_sims)
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
