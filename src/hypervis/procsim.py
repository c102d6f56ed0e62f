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

Obstacles describes each kind once, the one place the sweeps tell grains from
planes: profile, edge margin, caps, radial inverse, marks, named sampler, and
hit kernels with their prefilter bounds, kept here beside the cap geometry.
It serves three samplers, which draw every obstacle but the band experiments':
sample_annulus serves the many-ray sweep, the intersection density, the
segment crossings and the windowed samplers, sample_cap_annuli a single ray,
drawing only the obstacles in the cap of directions from which it can be
reached (again an exact Poisson restriction), and sample_cap_union the
many-ray sweep deep out, drawing only the union of the caps of a
replication's live rays. Each draws a round of replications at once, each
generator making its own draws in its own order, and runs the radial inverse
(sample_radial_annulus or sample_plane_distances, which invert the uniforms
handed to them) once over the round, each root converging on its own. One
proposal step (_proposals) makes the first draws of every block of every
sampler: per generator one Poisson call for its counts and one uniform call
for the distances of its obstacles and, in the capped samplers, their
versines. Each sampler call checks the resource guard once, on the largest
expected count of its round (_counts). They return each per-obstacle array
flat in generator order, then a count per generator, in polar form:
distances, unit directions (to a grain's center or a plane's foot) or
versines, and radii. Only sample_hyperplanes builds plane normals.

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
from itertools import repeat
from typing import Callable

import numpy as np

from .closedform import GrainLaw, omega, power_integral, power_integral_at
from .closedform import power_integral_inverse
from .closedform import ball_volume, sinh_integral  # noqa: F401 (benchmarks/tracer.py wraps them here)

# Refuse samples whose expected obstacle count exceeds this (resource guard).
MAX_EXPECTED_COUNT = 1e8


class ResourceGuardError(ValueError):
    """A sample would hold more obstacles than the resource guard allows; the input asks too much."""


def guard(amount: float, what: str) -> None:
    """Refuse an amount of what beyond the resource guard, nan passing; it prints in full, so it reads above."""
    if amount > MAX_EXPECTED_COUNT:
        raise ResourceGuardError(f"{what} = {amount} exceeds resource guard {MAX_EXPECTED_COUNT:.0e}")


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


def _profile_annulus(n: int, sign: int, t_lo: float, t_hi, u: np.ndarray, sizes, profile=None) -> np.ndarray:
    """Distances with density proportional to sinh^n (sign -1) or cosh^n (sign +1), by inverse CDF of the
    uniforms u: sizes[i] of them on [t_lo, t_hi[i]], concatenated in generator order. profile is _profile_at
    of the bounds, where the caller has looked them up already. Refuses bounds but 0 <= t_lo < t_hi[i].

    The caller draws each generator's uniforms for its own annulus, and one
    inversion serves all of them. Each root of the inversion converges on its
    own, so a distance depends only on its own uniform and annulus.
    """
    if not (0 <= t_lo and np.all(t_lo < np.asarray(t_hi))):
        raise ValueError("need 0 <= t_lo < t_hi")
    g_lo, g_hi = profile or _profile_at(n, sign, t_lo, t_hi)
    return power_integral_inverse(n, g_lo + u * np.repeat(g_hi - g_lo, sizes), sign)


def sample_radial_annulus(d: int, t_lo: float, t_hi, u: np.ndarray, sizes, profile=None) -> np.ndarray:
    """Distances with density proportional to sinh^{d-1} on [t_lo, t_hi[i]], inverting u (see _profile_annulus)."""
    return _profile_annulus(d - 1, -1, t_lo, t_hi, u, sizes, profile)


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


def _grain_bounds(g_dist: np.ndarray, g_rad: np.ndarray) -> np.ndarray:
    """cos theta above which a grain can meet the ray, less a slack wider than the rounding of _grain_hits'
    test: a hit needs the grain inside the cone cos theta > 0, sinh^2 D (1 - cos^2 theta) <= cosh^2 r - 1."""
    sin2 = ((1.0 + 4e-15) * np.cosh(g_rad) ** 2 - 1.0) / np.sinh(g_dist) ** 2
    return np.maximum(np.sqrt(np.maximum(0.0, (1.0 - 1e-15) - sin2)) - 1e-9, 0.0)


def _grain_hits(g_dist: np.ndarray, vers: np.ndarray, g_rad: np.ndarray) -> np.ndarray:
    """Hit parameter, inf for a miss, of a ray at versine vers < 1 to each grain's center direction.

    With sin^2 theta = w (2 - w) and C = sqrt(1 + sinh^2 D sin^2 theta), the
    ray meets the grain iff C <= cosh r, first at t0 - arccosh(cosh r / C),
    tanh t0 = tanh D cos theta. The versine keeps this precise where cos theta
    rounds to 1.
    """
    sinh_d, cosh_r = np.sinh(g_dist), np.cosh(g_rad)
    c = np.sqrt(1.0 + sinh_d**2 * (vers * (2.0 - vers)))
    t0 = 0.5 * np.log((np.cosh(g_dist) + sinh_d * (1.0 - vers)) / (np.exp(-g_dist) + sinh_d * vers))
    t = t0 - np.arccosh(np.maximum(1.0, cosh_r / c))
    return np.where(c <= cosh_r, np.maximum(t, 0.0), np.inf)


def _plane_bounds(p_dist: np.ndarray) -> np.ndarray:
    """cos theta above which a plane can cross the ray: tanh t, less 1e-12, far more than the few 1e-16
    by which w < 1 - tanh t rounds."""
    return np.tanh(p_dist) - 1e-12


def _plane_hits(p_dist: np.ndarray, vers: np.ndarray) -> np.ndarray:
    """Crossing parameters of a ray on each plane, inf where it never crosses, from the versines w of the
    angles between the ray and the planes' directions.

    The ray crosses the plane at distance t where tanh s = tanh t / cos theta,
    that is at s = log((2 - g - w) / (g - w)) / 2 with g = 1 - tanh t, if w < g.
    Versines keep this precise where cos theta and tanh t both round to 1.
    """
    g = plane_cap_gap(p_dist)
    with np.errstate(divide="ignore", invalid="ignore"):  # w >= g never crosses; np.where drops those
        s = 0.5 * np.log((2.0 - g - vers) / (g - vers))
    return np.where(vers < g, s, np.inf)


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


def cap_versines(d: int, gap: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Proposed versines 1 - cos theta in the cap [0, gap), one from each column of the uniforms u, and which
    of them to keep: u[0] proposes, u[1] (read only where d != 3) thins.

    Proposals gap U^{2/(d-1)} have density proportional to w^{(d-3)/2}.
    Keeping each with probability (2 - w)^{(d-3)/2} / M thins them to the
    direction density (w (2 - w))^{(d-3)/2}; at d = 3 both are uniform and
    every proposal is kept. So a Poisson number of proposals, of mean
    cap_share times the obstacles of an annulus, keeps exactly the obstacles
    of the cap: a Poisson restriction like the annulus itself.
    """
    versines = gap * u[0] ** (2.0 / (d - 1))
    if d == 3:
        return versines, np.ones(len(versines), dtype=bool)
    return versines, u[1] * _cap_bound(d, gap) < (2.0 - versines) ** ((d - 3) / 2)


def kept_counts(counts: np.ndarray, keep: np.ndarray) -> np.ndarray:
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
    """The one description of an obstacle kind: the grains of law, or hyperplanes for None, at intensity
    gamma >= 0 in H^d (a nan or negative gamma is refused by name).

    Obstacles within distance t number gamma * scale * power_integral(d - 1, t, sign) on average: grain
    centers follow the sinh profile (sign -1) with scale omega_d, planes the cosh profile (sign +1) with
    scale 2, which invert inverts. An obstacle at distance t cannot meet a ray before t - margin, the largest
    grain radius (0 for planes), and one at distance >= t meets it only from the cap of versine gap(t) around
    the ray, in which cap_versines proposes the share(t) of all directions. marks(rngs, counts) draws (radii,)
    of grains, () of planes; a ray meets an obstacle only where cos theta > bound(distance, *marks), first at
    hit(distance, versine, *marks). annulus(t_lo, t_hi, rngs) is sample_annulus under the kind's name.
    """

    d: int
    gamma: float
    law: GrainLaw | None = None
    sign: int = field(init=False)
    scale: float = field(init=False)
    margin: float = field(init=False)
    gap: Callable = field(init=False)
    bound: Callable = field(init=False)
    hit: Callable = field(init=False)
    invert: Callable = field(init=False)
    marks: Callable = field(init=False)
    annulus: Callable = field(init=False)

    def __post_init__(self):
        d, gamma, law = self.d, self.gamma, self.law
        if not gamma >= 0:
            raise ValueError(f"intensity must be >= 0, got {gamma}")
        if law is None:  # the module's kernels and inverse as a test or tracer left them (named samplers: at call)
            kind = dict(sign=1, scale=2.0, margin=0.0, gap=plane_cap_gap, bound=_plane_bounds, hit=_plane_hits,
                        invert=sample_plane_distances, marks=lambda rngs, counts: (),
                        annulus=lambda *block: sample_hyperplane_annulus(d, gamma, *block))
        else:
            kind = dict(sign=-1, scale=omega(d), margin=law.max_radius, gap=lambda t: grain_cap_gap(law.max_radius, t),
                        bound=_grain_bounds, hit=_grain_hits, invert=sample_radial_annulus,
                        marks=lambda rngs, counts: (law.sample_radii(rngs, counts),),
                        annulus=lambda *block: sample_boolean_annulus(d, gamma, law, *block))
        for name, value in kind.items():
            object.__setattr__(self, name, value)

    def share(self, t: float) -> float:
        return cap_share(self.d, self.gap(t))


def _counts(rngs, means: list[float], sizes=None) -> list:
    """A Poisson count of mean means[i] from each generator rngs[i], or sizes[i] of them, refused beyond the
    resource guard. The guard reads the largest mean once; nan passes it, as it passes guard."""
    guard(max((m for m in means if m == m), default=math.nan), "expected obstacle count")
    return [rng.poisson(mean, size) for rng, mean, size in zip(rngs, means, sizes or repeat(None))]


def _proposals(obs: Obstacles, t_lo: float, t_hi, rngs, share: float, rows: int, sizes=None) -> tuple:
    """The first draws of a sweep block: (caps, counts, distances, uniforms). Each generator rngs[i] draws caps[i],
    the _counts of its annulus [t_lo, t_hi[i]) in a share of all directions (sizes[i] of them where given), then
    in one call rows uniforms for each of its counts[i] proposals, concatenated in generator order: row 0 becomes
    distances by obs.invert, where benchmarks/tracer.py times it, and rows 1: are returned."""
    g_lo, g_hi = profile = _profile_at(obs.d - 1, obs.sign, t_lo, t_hi)
    scale = obs.scale * share
    caps = _counts(rngs, (obs.gamma * (scale * g_hi - scale * g_lo)).tolist(), sizes)
    counts = np.array(caps if sizes is None else [c.sum() for c in caps], dtype=int)
    u = np.concatenate([rng.random((rows, c)) for rng, c in zip(rngs, counts)], axis=1)
    return caps, counts, obs.invert(obs.d, t_lo, t_hi, u[0], counts, profile=profile), u[1:]


def _marked(obs: Obstacles, rngs, counts, dists, where, keep=None, drop_covering: bool = True) -> tuple:
    """(distances, where, *marks, counts) of the proposals, each generator drawing its obs.marks last (a grain's
    radius, none for a plane), where is a unit direction (a row) or a versine per proposal. Only proposals that
    keep selects (all for None) remain, with drop_covering none whose radius reaches the base point, and
    counts[i], the proposals of generator rngs[i], becomes what it keeps."""
    marks = obs.marks(rngs, counts)
    if drop_covering and marks:
        keep = dists > marks[0] if keep is None else keep & (dists > marks[0])
    if keep is not None:
        dists, where, marks, counts = dists[keep], where[keep], tuple(m[keep] for m in marks), kept_counts(counts, keep)
    return dists, where, *marks, counts


def sample_annulus(obs: Obstacles, t_lo: float, t_hi, rngs, drop_covering: bool = True) -> tuple[np.ndarray, ...]:
    """Obstacles at distance in [t_lo, t_hi[i]) from each generator rngs[i]: (distances, directions, radii,
    counts) of grains or (distances, directions, counts) of planes, each generator drawing its count,
    distances, directions and radii in that order.

    With drop_covering, grains containing the base point (distance <= radius)
    are deleted, which conditions the model on an uncovered base point.
    """
    _, counts, dists, _ = _proposals(obs, t_lo, t_hi, rngs, 1.0, 1)
    return _marked(obs, rngs, counts, dists, unit_vectors(obs.d, rngs, counts), None, drop_covering)


def sample_cap_annuli(obs: Obstacles, t_lo: float, t_hi, rngs) -> tuple[np.ndarray, ...]:
    """The obstacles of sample_annulus that can meet a ray: (distances, versines, radii, counts) of grains
    or (distances, versines, counts) of planes.

    The versine is 1 - cos theta, with theta the angle between the ray and the
    obstacle's direction (to a grain's center or a plane's foot, away from
    the base point). Only the obstacles in the cap of versine
    obs.gap(t_lo) are drawn (see cap_versines), each generator drawing its
    count, its distances' and versines' uniforms (_proposals) and radii.
    """
    d, gap = obs.d, obs.gap(t_lo)
    _, counts, dists, uniforms = _proposals(obs, t_lo, t_hi, rngs, cap_share(d, gap), 2 if d == 3 else 3)
    return _marked(obs, rngs, counts, dists, *cap_versines(d, gap, uniforms))


def sample_cap_union(obs: Obstacles, t_lo: float, t_hi, rngs, rays) -> tuple[np.ndarray, ...]:
    """The obstacles of sample_annulus whose direction lies in the cap of versine obs.gap(t_lo) around some
    ray of rays[i], for each generator rngs[i]: (distances, directions, radii, counts) of grains or
    (distances, directions, counts) of planes.

    Generator i draws one Poisson count per ray of rays[i] (the share of the annulus in one cap), then in
    one call (_proposals) the uniforms of the distances and the versines w (cap_versines) of its
    proposals, then their directions (1 - w) u + sqrt(w (2 - w)) v, cap by cap in ray order, with u the
    cap's ray and v uniform and orthogonal to u, and the radii. A proposal is kept if cap_versines keeps it
    and its direction lies in no earlier ray's cap, so each point of the union is drawn from exactly one
    cap: a Poisson restriction like the annulus itself.
    """
    d, gap = obs.d, obs.gap(t_lo)
    sizes = [len(u) for u in rays]
    caps, counts, dists, uniforms = _proposals(obs, t_lo, t_hi, rngs, cap_share(d, gap), 2 if d == 3 else 3, sizes)
    owners = [np.repeat(np.arange(len(c)), c) for c in caps]
    versines, keep = cap_versines(d, gap, uniforms)
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
    if not r_obs > 0:  # nan included; Obstacles refuses the intensity
        raise ValueError("r_obs must be > 0")
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


def sample_plane_distances(d: int, t_lo: float, t_hi, u: np.ndarray, sizes, profile=None) -> np.ndarray:
    """Distances with density proportional to cosh^{d-1} on [t_lo, t_hi[i]], inverting u (see _profile_annulus)."""
    return _profile_annulus(d - 1, 1, t_lo, t_hi, u, sizes, profile)


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
    if not r_obs > 0:  # nan included; Obstacles refuses the intensity
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
    guard(mean * n_sims, f"expected grain count of {n_sims} band experiments")
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
