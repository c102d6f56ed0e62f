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

The annulus samplers (sample_*_annulus) serve the many-ray sweep and the
intersection density, the cap samplers (sample_*_cap_annuli) a single ray,
drawing only the obstacles in the cap of directions from which it can be
reached (again an exact Poisson restriction), the cap-union samplers
(sample_*_cap_union) the many-ray sweep deep out, drawing only the union of
the caps of a replication's live rays, and sample_hyperplane_windows the
segment crossings. Each draws a round of replications at once, each
generator making its own draws in its own order, and runs the radial
inverse once over the round, each root converging on its own. They return
each per-obstacle array flat in generator order, then a count per generator.

Conditioning the Boolean model on an uncovered base point deletes the grains
containing it, which restricts the Poisson intensity to the complement and is
therefore exact as well (the tests cross-check it against rejection sampling).

The band sampler band_first_touches serves the depth-stratified estimator. It
draws, for many independent experiments at once, only the grains whose first
contact with a ray falls in a depth band: one Poisson draw labelled by
experiment, each contact uniform in the band, with no Fermi window and no
contact geometry (the tests keep the window sampler as an oracle).
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


def unit_vectors(d: int, rngs, sizes) -> np.ndarray:
    """(sum(sizes), d) array of uniform unit vectors (spatial parts of base tangents): sizes[i] drawn
    by generator rngs[i], the rows concatenated in generator order."""
    g = np.concatenate([rng.standard_normal((size, d)) for rng, size in zip(rngs, sizes)])
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _profile_annulus(n: int, sign: int, t_lo: float, t_hi, rngs, sizes) -> np.ndarray:
    """Distances with density proportional to sinh^n (sign -1) or cosh^n (sign +1), by inverse CDF:
    sizes[i] on [t_lo, t_hi[i]] from generator rngs[i], concatenated in generator order.

    Each generator draws the uniforms of its own annulus and one inversion
    serves all of them. Each root of the inversion converges on its own, so a
    distance depends only on its own uniform and annulus.
    """
    g_lo = power_integral_at(n, t_lo, sign)
    span = np.array([power_integral_at(n, t, sign) for t in t_hi]) - g_lo
    u = np.concatenate([rng.uniform(size=size) for rng, size in zip(rngs, sizes)])
    return power_integral_inverse(n, g_lo + u * np.repeat(span, sizes), sign)


def sample_radial_annulus(d: int, t_lo: float, t_hi, rngs, sizes) -> np.ndarray:
    """Distances with density proportional to sinh^{d-1} on [t_lo, t_hi[i]], per generator (see _profile_annulus)."""
    if not (0 <= t_lo and np.all(t_lo < np.asarray(t_hi))):
        raise ValueError("need 0 <= t_lo < t_hi")
    return _profile_annulus(d - 1, -1, t_lo, t_hi, rngs, sizes)


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


def _poisson_count(rng: np.random.Generator, mean: float, size: int | None = None):
    """A Poisson count of the given mean, or size of them, refused beyond the resource guard."""
    if mean > MAX_EXPECTED_COUNT:
        raise ResourceGuardError(f"expected obstacle count {mean:.3g} exceeds resource guard {MAX_EXPECTED_COUNT:.0e}")
    return rng.poisson(mean, size)


def _annulus_means(gamma: float, scale: float, n: int, sign: int, t_lo: float, t_hi) -> list[float]:
    """Expected obstacles at distance in [t_lo, t_hi[i]), for each i, of a process with
    gamma * scale * power_integral(n, t, sign) obstacles within distance t on average."""
    g_lo = power_integral_at(n, t_lo, sign)
    return [gamma * (scale * power_integral_at(n, t, sign) - scale * g_lo) for t in t_hi]


def _annulus_counts(gamma: float, scale: float, n: int, sign: int, t_lo: float, t_hi, rngs) -> np.ndarray:
    """One Poisson count per generator, of the obstacles of _annulus_means."""
    means = _annulus_means(gamma, scale, n, sign, t_lo, t_hi)
    return np.array([_poisson_count(rng, mean) for rng, mean in zip(rngs, means)], dtype=int)


def _kept(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """How many draws each generator keeps, of counts[i] draws by generator i concatenated in generator order."""
    return np.bincount(np.repeat(np.arange(len(counts)), counts)[keep], minlength=len(counts))


def _outside_earlier_caps(dirs: np.ndarray, owners: np.ndarray, rays: np.ndarray, gap: float) -> np.ndarray:
    """Which of the unit vectors dirs, dirs[k] drawn in the cap of versine gap around rays[owners[k]], lie in
    the cap of no earlier ray. The versines |dir - ray|^2 / 2 keep their precision in caps of any size."""
    versines = 0.5 * np.sum((dirs[:, None, :] - rays) ** 2, axis=2)
    return ~np.any((versines < gap) & (np.arange(len(rays)) < owners[:, None]), axis=1)


def _cap_union(d: int, gamma: float, scale: float, sign: int, gap: float, t_lo: float, t_hi, rngs, rays) -> tuple:
    """Proposals for the obstacles at distance in [t_lo, t_hi[i]) whose direction lies in the cap of versine gap
    around some ray of rays[i], of a process with gamma * scale * power_integral(d - 1, t, sign) obstacles within
    distance t: (distances, directions, keep, counts), counts[i] of them drawn by generator rngs[i].

    Generator i draws one Poisson count per ray of rays[i] (cap_share of the annulus each), then the
    distances, the versines w (cap_versines) and the directions (1 - w) u + sqrt(w (2 - w)) v of its
    proposals, cap by cap in ray order, with u the cap's ray and v uniform and orthogonal to u. A
    proposal is kept if cap_versines keeps it and its direction lies in no earlier ray's cap, so each
    point of the union is drawn from exactly one cap: a Poisson restriction like the annulus itself.
    """
    means = _annulus_means(gamma, scale * cap_share(d, gap), d - 1, sign, t_lo, t_hi)
    caps = [_poisson_count(rng, mean, len(u)) for rng, mean, u in zip(rngs, means, rays)]
    owners = [np.repeat(np.arange(len(c)), c) for c in caps]
    counts = np.array([len(o) for o in owners], dtype=int)
    dists = _profile_annulus(d - 1, sign, t_lo, t_hi, rngs, counts)
    versines, keep = cap_versines(d, gap, rngs, counts)
    axes = np.concatenate([u[o] for u, o in zip(rays, owners)])
    v = np.concatenate([rng.standard_normal((c, d)) for rng, c in zip(rngs, counts)])
    v -= np.sum(v * axes, axis=1, keepdims=True) * axes
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dirs = (1.0 - versines)[:, None] * axes + np.sqrt(versines * (2.0 - versines))[:, None] * v
    for lo, u, o in zip(np.cumsum(counts) - counts, rays, owners):
        keep[lo : lo + len(o)] &= _outside_earlier_caps(dirs[lo : lo + len(o)], o, u, gap)
    return dists, dirs, keep, counts


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
    dists = sample_radial_annulus(d, 0.0, [r_max], [rng], [n])
    return points_from_polar(dists, unit_vectors(d, [rng], [n]))


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


def sample_boolean_cap_union(d: int, gamma: float, law: GrainLaw, t_lo: float, t_hi, rngs, rays) -> tuple:
    """The grains of sample_boolean_annulus whose center direction lies in the cap of
    grain_cap_gap(law.max_radius, t_lo) around some ray of rays[i], for each generator rngs[i]:
    (distances, directions, radii, counts), each generator drawing its radii after the proposals
    of _cap_union. Grains covering the base point are deleted.
    """
    gap = grain_cap_gap(law.max_radius, t_lo)
    dists, dirs, keep, counts = _cap_union(d, gamma, omega(d), -1, gap, t_lo, t_hi, rngs, rays)
    radii = np.concatenate([law.sample_radii(rng, c) for rng, c in zip(rngs, counts)])
    keep &= dists > radii
    return dists[keep], dirs[keep], radii[keep], _kept(counts, keep)


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


def sample_plane_distances(d: int, t_lo: float, t_hi, rngs, sizes) -> np.ndarray:
    """Distances with density proportional to cosh^{d-1} on [t_lo, t_hi[i]], per generator (see _profile_annulus)."""
    return _profile_annulus(d - 1, 1, t_lo, t_hi, rngs, sizes)


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


def sample_hyperplane_cap_union(d: int, gamma: float, t_lo: float, t_hi, rngs, rays) -> tuple[np.ndarray, ...]:
    """The planes of sample_hyperplane_annulus whose normal direction lies in the cap cos theta > tanh t_lo
    around some ray of rays[i], for each generator rngs[i]: (distances, unit normals, counts), drawn as in
    _cap_union."""
    dists, dirs, keep, counts = _cap_union(d, gamma, 2.0, 1, plane_cap_gap(t_lo), t_lo, t_hi, rngs, rays)
    return dists[keep], normals_from_polar(dists[keep], dirs[keep]), _kept(counts, keep)


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
# Band sampler (depth-stratified estimators)
# ---------------------------------------------------------------------------


def band_grains(d: int, gamma: float, law: GrainLaw, s_lo: float, s_hi: float, n_sims: int) -> float:
    """Expected grains per experiment of the Fermi window of the band (s_lo, s_hi] along a ray, refused beyond the
    resource guard for n_sims experiments.

    In Fermi coordinates along the ray a grain has a foot coordinate y and a
    fiber distance zeta. The window, y in [s_lo - m, s_hi + m] and zeta < m
    for the largest grain radius m, holds every grain that can first touch
    the ray in the band. band_first_touches draws only the share
    (s_hi - s_lo) / (s_hi - s_lo + 2m) of them, so the window bounds its draws
    and the guard refuses by the window.
    """
    m = law.max_radius
    fiber = omega(d - 1) * np.sinh(m) ** (d - 1) / (d - 1)
    mean = gamma * ((s_hi - s_lo) + 2.0 * m) * fiber
    if mean * n_sims > MAX_EXPECTED_COUNT:
        raise ResourceGuardError(
            f"expected grain count {mean * n_sims:.3g} of {n_sims} band experiments "
            f"exceeds resource guard {MAX_EXPECTED_COUNT:.0e}"
        )
    return mean


def band_first_touches(
    d: int,
    gamma: float,
    law: GrainLaw,
    s_lo: float,
    s_hi: float,
    n_sims: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """First-touch parameters in (s_lo, s_hi] for n_sims independent band experiments, inf where the band stays clear.

    Each experiment realizes, for a ray known to be unobstructed up to s_lo,
    exactly those grains whose first contact with the ray lies in the band
    (a Poisson restriction, independent across disjoint bands). In Fermi
    coordinates (y, zeta, r) along the ray a grain touches the ray iff
    zeta < r, first at y - w with cosh w = cosh r / cosh zeta. The foot y has
    uniform intensity independent of the marks (zeta, r), so for every
    touching grain a y-interval of length s_hi - s_lo puts its contact in the
    band, and the contact is uniform there: w shifts a uniform coordinate and
    never changes the law, so it is never computed. The n_sims experiments
    together make one Poisson process on experiments x band x marks: one
    Poisson count, then for each grain a uniform experiment label, a uniform
    contact, zeta with density prop. to cosh(zeta) sinh^{d-2}(zeta) below the
    largest radius m (sinh zeta = U^{1/(d-1)} sinh m) and a radius. The least
    contact of the touching grains with an experiment's label is its first touch.
    """
    m, width = law.max_radius, s_hi - s_lo
    mean = band_grains(d, gamma, law, s_lo, s_hi, n_sims) * width / (width + 2.0 * m)
    total = int(rng.poisson(n_sims * mean))
    labels = rng.integers(0, n_sims, size=total)
    contacts = rng.uniform(s_lo, s_hi, size=total)
    zeta = np.arcsinh(rng.uniform(size=total) ** (1.0 / (d - 1)) * np.sinh(m))
    touching = (zeta < law.sample_radii(rng, total)) & (contacts > s_lo)
    first = np.full(n_sims, np.inf)
    np.minimum.at(first, labels[touching], contacts[touching])
    return first
