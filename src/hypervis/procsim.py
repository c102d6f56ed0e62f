"""Samplers for ball-grain and hyperplane processes.

Grain centers follow a Poisson process with intensity gamma times hyperbolic
volume; radii are drawn independently from the grain law. Hyperplanes follow
a Poisson process on the invariant hyperplane measure, realized as a uniform
direction plus an offset t >= 0 with density proportional to cosh^{d-1} t:
the plane of offset -t and direction -u is the plane of t and u, so a sign
would not change the law.

The annulus samplers carve the processes into radial shells so that
estimators can sweep outward from the base point and stop as soon as no
farther obstacle can matter; restricting a Poisson process to a region is
again Poisson, so the sweep is exact. A window of radius R, which holds
every obstacle that can reach the observation ball, is the annulus [0, R].

Obstacles describes each kind once (profile, edge margin, direction caps)
to three samplers, which draw every obstacle but the band experiments':
sample_annulus serves the many-ray sweep, the intersection density, the
segment crossings and the windowed samplers, sample_cap_annuli a single ray,
drawing only the obstacles in the cap of directions from which it can be
reached (again an exact Poisson restriction), and sample_cap_union the
many-ray sweep deep out, drawing only the union of the caps of a
replication's live rays. Each draws a round of replications at once, each
generator making its own draws in its own order, and runs the radial inverse
once over the round, each root converging on its own. They return each
per-obstacle array flat in generator order, then a count per generator, in
polar form: distances, unit directions (to a grain's center or a plane's
foot) or versines, and radii. Only sample_hyperplanes builds plane normals.

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
from dataclasses import dataclass, field

import numpy as np

from .closedform import GrainLaw, omega, power_integral, power_integral_at
from .closedform import power_integral_inverse
from .closedform import ball_volume, sinh_integral  # noqa: F401 (benchmarks/tracer.py wraps them here)

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


def _profile_at(n: int, sign: int, t_lo: float, t_hi) -> tuple[float, np.ndarray]:
    """(g_lo, g_hi): power_integral_at(n, ., sign) at t_lo and at each t_hi[i]. A round's replications
    share most of their bounds, so each distinct bound is looked up once."""
    t_hi = np.asarray(t_hi, dtype=float).tolist()
    values = {t: power_integral_at(n, t, sign) for t in set(t_hi)}
    return power_integral_at(n, t_lo, sign), np.array([values[t] for t in t_hi])


def _profile_annulus(n: int, sign: int, t_lo: float, t_hi, rngs, sizes, profile=None) -> np.ndarray:
    """Distances with density proportional to sinh^n (sign -1) or cosh^n (sign +1), by inverse CDF:
    sizes[i] on [t_lo, t_hi[i]] from generator rngs[i], concatenated in generator order. profile is
    _profile_at of the bounds, where the caller has looked them up already. Refuses bounds but 0 <= t_lo < t_hi[i].

    Each generator draws the uniforms of its own annulus and one inversion
    serves all of them. Each root of the inversion converges on its own, so a
    distance depends only on its own uniform and annulus.
    """
    if not (0 <= t_lo and np.all(t_lo < np.asarray(t_hi))):
        raise ValueError("need 0 <= t_lo < t_hi")
    g_lo, g_hi = profile or _profile_at(n, sign, t_lo, t_hi)
    u = np.concatenate([rng.random(size) for rng, size in zip(rngs, sizes)])
    return power_integral_inverse(n, g_lo + u * np.repeat(g_hi - g_lo, sizes), sign)


def sample_radial_annulus(d: int, t_lo: float, t_hi, rngs, sizes, profile=None) -> np.ndarray:
    """Distances with density proportional to sinh^{d-1} on [t_lo, t_hi[i]], per generator (see _profile_annulus)."""
    return _profile_annulus(d - 1, -1, t_lo, t_hi, rngs, sizes, profile)


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
# the ray and the obstacle's direction (to a grain's center or a plane's
# foot, away from the base point) lies in a cap around the ray. Obstacle
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
    u = np.concatenate([rng.random((rows, c)) for rng, c in zip(rngs, counts)], axis=1)
    versines = gap * u[0] ** (2.0 / (d - 1))
    if d == 3:
        return versines, np.ones(len(versines), dtype=bool)
    return versines, u[1] * _cap_bound(d, gap) < (2.0 - versines) ** ((d - 3) / 2)


def _poisson_count(rng: np.random.Generator, mean: float, size: int | None = None):
    """A Poisson count of the given mean, or size of them, refused beyond the resource guard."""
    if mean > MAX_EXPECTED_COUNT:
        raise ResourceGuardError(f"expected obstacle count {mean:.3g} exceeds resource guard {MAX_EXPECTED_COUNT:.0e}")
    return rng.poisson(mean, size)


def _kept(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """How many draws each generator keeps, of counts[i] draws by generator i concatenated in generator order."""
    return np.bincount(np.repeat(np.arange(len(counts)), counts)[keep], minlength=len(counts))


def _outside_earlier_caps(dirs: np.ndarray, owners: np.ndarray, rays: np.ndarray, gap: float) -> np.ndarray:
    """Which of the unit vectors dirs, dirs[k] drawn in the cap of versine gap around rays[owners[k]], lie in
    the cap of no earlier ray. The versines |dir - ray|^2 / 2 keep their precision in caps of any size."""
    versines = 0.5 * np.sum((dirs[:, None, :] - rays) ** 2, axis=2)
    return ~np.any((versines < gap) & (np.arange(len(rays)) < owners[:, None]), axis=1)


# ---------------------------------------------------------------------------
# Radial sweeps: annuli, capped annuli and unions of caps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Obstacles:
    """The obstacles a radial sweep from the base point passes: the grains of law, or hyperplanes for None,
    at intensity gamma in H^d.

    Obstacles within distance t number gamma * scale * power_integral(d - 1, t, sign) on average: grain
    centers follow the sinh profile (sign -1) with scale omega_d, planes the cosh profile (sign +1) with
    scale 2. An obstacle at distance t cannot meet a ray before t - margin, the largest grain radius (0
    for planes), and one at distance >= t meets it only from the cap of versine gap(t) around the ray,
    in which cap_versines proposes the share(t) of all directions.
    """

    d: int
    gamma: float
    law: GrainLaw | None = None
    sign: int = field(init=False)
    scale: float = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self):
        kind = (1, 2.0, 0.0) if self.law is None else (-1, omega(self.d), self.law.max_radius)
        for name, value in zip(("sign", "scale", "margin"), kind):
            object.__setattr__(self, name, value)

    def gap(self, t: float) -> float:
        return plane_cap_gap(t) if self.law is None else grain_cap_gap(self.margin, t)

    def share(self, t: float) -> float:
        return cap_share(self.d, self.gap(t))


def _means(obs: Obstacles, share: float, profile: tuple) -> list[float]:
    """Expected obstacles at distance in [t_lo, t_hi[i]), for each i, with directions in a share of all,
    from profile = _profile_at(obs.d - 1, obs.sign, t_lo, t_hi)."""
    g_lo, g_hi = profile
    scale = obs.scale * share
    return (obs.gamma * (scale * g_hi - scale * g_lo)).tolist()


def _counts(obs: Obstacles, share: float, profile: tuple, rngs) -> np.ndarray:
    """One Poisson count per generator, of the obstacles of _means."""
    return np.array([_poisson_count(rng, mean) for rng, mean in zip(rngs, _means(obs, share, profile))], dtype=int)


def _distances(obs: Obstacles, t_lo: float, t_hi, rngs, sizes, profile: tuple) -> np.ndarray:
    """sizes[i] distances on [t_lo, t_hi[i]] from generator rngs[i] by the obstacles' profile, concatenated."""
    sample = sample_plane_distances if obs.law is None else sample_radial_annulus
    return sample(obs.d, t_lo, t_hi, rngs, sizes, profile=profile)


def _marked(obs: Obstacles, rngs, counts, dists, where, keep=None, drop_covering: bool = True) -> tuple:
    """(distances, where, radii, counts) of the proposed grains, each generator drawing its radii last, or
    (distances, where, counts) of the planes, where is a unit direction (a row) or a versine per proposal. Only
    proposals that keep selects (all for None) remain, with drop_covering no grain covering the base point,
    and counts[i], the proposals of generator rngs[i], becomes what it keeps."""
    marks = ()
    if obs.law is not None:
        marks = (obs.law.sample_radii(rngs, counts),)
        if drop_covering:
            keep = dists > marks[0] if keep is None else keep & (dists > marks[0])
    if keep is not None:
        dists, where, marks, counts = dists[keep], where[keep], tuple(m[keep] for m in marks), _kept(counts, keep)
    return dists, where, *marks, counts


def sample_annulus(obs: Obstacles, t_lo: float, t_hi, rngs, drop_covering: bool = True) -> tuple[np.ndarray, ...]:
    """Obstacles at distance in [t_lo, t_hi[i]) from each generator rngs[i]: (distances, directions, radii,
    counts) of grains or (distances, directions, counts) of planes, each generator drawing its count,
    distances, directions and radii in that order.

    With drop_covering, grains containing the base point (distance <= radius)
    are deleted, which conditions the model on an uncovered base point.
    """
    profile = _profile_at(obs.d - 1, obs.sign, t_lo, t_hi)
    counts = _counts(obs, 1.0, profile, rngs)
    dists = _distances(obs, t_lo, t_hi, rngs, counts, profile)
    return _marked(obs, rngs, counts, dists, unit_vectors(obs.d, rngs, counts), None, drop_covering)


def sample_cap_annuli(obs: Obstacles, t_lo: float, t_hi, rngs) -> tuple[np.ndarray, ...]:
    """The obstacles of sample_annulus that can meet a ray: (distances, versines, radii, counts) of grains
    or (distances, versines, counts) of planes.

    The versine is 1 - cos theta, with theta the angle between the ray and the
    obstacle's direction (to a grain's center or a plane's foot, away from
    the base point). Only the obstacles in the cap of versine
    obs.gap(t_lo) are drawn (see cap_versines), after the distances.
    """
    gap = obs.gap(t_lo)
    profile = _profile_at(obs.d - 1, obs.sign, t_lo, t_hi)
    counts = _counts(obs, cap_share(obs.d, gap), profile, rngs)
    dists = _distances(obs, t_lo, t_hi, rngs, counts, profile)
    return _marked(obs, rngs, counts, dists, *cap_versines(obs.d, gap, rngs, counts))


def sample_cap_union(obs: Obstacles, t_lo: float, t_hi, rngs, rays) -> tuple[np.ndarray, ...]:
    """The obstacles of sample_annulus whose direction lies in the cap of versine obs.gap(t_lo) around some
    ray of rays[i], for each generator rngs[i]: (distances, directions, radii, counts) of grains or
    (distances, directions, counts) of planes.

    Generator i draws one Poisson count per ray of rays[i] (the share of the annulus in one cap), then the
    distances, the versines w (cap_versines), the directions (1 - w) u + sqrt(w (2 - w)) v of its
    proposals, cap by cap in ray order, with u the cap's ray and v uniform and orthogonal to u, and the
    radii. A proposal is kept if cap_versines keeps it and its direction lies in no earlier ray's cap, so
    each point of the union is drawn from exactly one cap: a Poisson restriction like the annulus itself.
    """
    d, gap = obs.d, obs.gap(t_lo)
    profile = _profile_at(obs.d - 1, obs.sign, t_lo, t_hi)
    means = _means(obs, cap_share(d, gap), profile)
    caps = [_poisson_count(rng, mean, len(u)) for rng, mean, u in zip(rngs, means, rays)]
    owners = [np.repeat(np.arange(len(c)), c) for c in caps]
    counts = np.array([len(o) for o in owners], dtype=int)
    dists = _distances(obs, t_lo, t_hi, rngs, counts, profile)
    versines, keep = cap_versines(d, gap, rngs, counts)
    axes = np.concatenate([u[o] for u, o in zip(rays, owners)])
    v = np.concatenate([rng.standard_normal((c, d)) for rng, c in zip(rngs, counts)])
    v -= np.sum(v * axes, axis=1, keepdims=True) * axes
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    dirs = (1.0 - versines)[:, None] * axes + np.sqrt(versines * (2.0 - versines))[:, None] * v
    for lo, u, o in zip(np.cumsum(counts) - counts, rays, owners):
        keep[lo : lo + len(o)] &= _outside_earlier_caps(dirs[lo : lo + len(o)], o, u, gap)
    return _marked(obs, rngs, counts, dists, dirs, keep)


# ---------------------------------------------------------------------------
# Boolean-model samplers
# ---------------------------------------------------------------------------


def sample_boolean_annulus(d: int, gamma: float, law: GrainLaw, t_lo: float, t_hi, rngs, drop_covering=True):
    """sample_annulus of the grains of law: (distances, directions, radii, counts)."""
    return sample_annulus(Obstacles(d, gamma, law), t_lo, t_hi, rngs, drop_covering)


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


def sample_plane_distances(d: int, t_lo: float, t_hi, rngs, sizes, profile=None) -> np.ndarray:
    """Distances with density proportional to cosh^{d-1} on [t_lo, t_hi[i]], per generator (see _profile_annulus)."""
    return _profile_annulus(d - 1, 1, t_lo, t_hi, rngs, sizes, profile)


def normals_from_polar(offsets: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Unit normals sinh(x) * base + cosh(x) * direction for signed offsets x."""
    out = np.empty((len(offsets), dirs.shape[1] + 1))
    out[:, 0] = np.sinh(offsets)
    out[:, 1:] = np.cosh(offsets)[:, None] * dirs
    return out


def sample_hyperplane_annulus(d: int, gamma: float, t_lo: float, t_hi, rngs) -> tuple[np.ndarray, ...]:
    """sample_annulus of the hyperplanes: (distances, directions, counts), in polar form like the grains."""
    return sample_annulus(Obstacles(d, gamma), t_lo, t_hi, rngs)


def sample_hyperplanes(d: int, gamma: float, r_obs: float, rng: np.random.Generator) -> HyperplaneSample:
    """Hyperplane-process realization restricted to planes meeting B(base, r_obs): the annulus [0, r_obs].

    Count is Poisson(gamma * 2 int_0^{r_obs} cosh^{d-1}); each plane takes an
    offset x >= 0 with density prop. to cosh^{d-1} x and a uniform direction u,
    giving the normal sinh(x) base + cosh(x) u.
    """
    if r_obs <= 0:
        raise ValueError("r_obs must be > 0")
    dists, dirs, _ = sample_hyperplane_annulus(d, gamma, 0.0, [r_obs], [rng])
    return HyperplaneSample(d=d, normals=normals_from_polar(dists, dirs), window_radius=r_obs)


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
    contacts = s_lo + width * rng.random(total)
    zeta = np.arcsinh(rng.random(total) ** (1.0 / (d - 1)) * np.sinh(m))
    touching = (zeta < law.sample_radii([rng], [total])) & (contacts > s_lo)
    first = np.full(n_sims, np.inf)
    np.minimum.at(first, labels[touching], contacts[touching])
    return first
