"""Ray casting against grains and hyperplanes, visibility ranges, and the
Monte Carlo estimators for (truncated) visible volume and zero-cell volume.

The hit kernels are exact closed forms from hyperbolic trigonometry for
rays from the base point. The estimators sweep the obstacle process
radially outward from the base point and stop once no farther obstacle can
shorten any ray: a grain at center distance D cannot produce a hit before
D - radius, and a hyperplane at distance t cannot be crossed before t. This keeps the work proportional
to the realized visibility depth instead of the simulation window volume.
The same bound prunes rays within the sweep: a block starting at t_lo is
cast only against the rays whose current range exceeds t_lo minus the edge
margin, since it cannot shorten the others.

The vectorized kernels evaluate the hit formula only on the pairs that pass
a one-comparison prefilter (a cone test for grains, a sign test for
hyperplanes) and return bit for bit the matrices of the formula evaluated
on every pair. The ray pruning is exact too: a pruned ray could not have
been shortened.

A single ray (the range samplers behind the cdf quantities) needs only the
obstacles that can reach it: a plane at distance t only if the angle theta
between the ray and its normal has cos theta > tanh t, a grain of radius
<= m at distance D only if theta < pi/2 and sinh D sin theta <= sinh m.
Each block then draws, besides distances and radii, only the versine
1 - cos theta, in the cap at its inner (widest) radius, thinned to the exact
direction density (procsim.cap_versines): an exact Poisson restriction like
the annulus itself. A hit depends on an obstacle only through its distance,
radius and angle, so the hit formula of grain_hits_from_base runs on the
drawn versines, with no ray x obstacle product; planes cross where
tanh s = tanh t / cos theta, evaluated from the versines of theta and of the
cap at t. Versines keep their precision where cos theta rounds to 1.
Blocks hold _CAP_BLOCK_TARGET expected obstacles of this capped measure,
which grows about linearly in t (the cap's share of the sphere falls like
e^{-(d-1)t} while the profile grows like e^{(d-1)t}); a replication reaching
range R then costs O(R) draws and blocks for every rate, instead of
e^{(d-1)R}. By isotropy the law of a single ray's range does not depend on
its direction, which the capped sweep therefore never reads. Each
replication still draws one uniform direction before its obstacles, so its
stream, and with it every range, stays as it was when the sweep read it.

Replications are swept in rounds of at most 4096 rays and 4096 expected
obstacles per block: 512 (_ROUND_REPS) for the single-ray range samplers,
16 for the estimators with up to 256 rays, fewer beyond. A round shares each
block's bounds and one sampler call (one radial inverse over all its draws),
while each replication keeps its own generator and makes exactly its own
draws in its own order. A single-ray round shares one kernel call too, with
one hit per obstacle; with many rays each replication casts its rays through
its own slice of the round's obstacles, the kernel call it would make alone,
as a batched matrix product can move the last bits of a hit. The
segment-crossing estimator draws rounds of _ROUND_REPS windows the same way
and casts its segment through all of a round's planes at once.

Replication r of a run with master seed s draws from stream(s, r), so runs
are reproducible and order independent. The generators of a run come from
rng.streams, which derives them in chunks and returns bit for bit the
stream(s, r) generators; the results, bit for bit, depend on neither the
round size nor the chunk size. Rays
inside one replication share the realization and are dependent; standard
errors are computed across replications only, so estimators need at least two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import closedform, procsim
from .closedform import GrainLaw, grain_kind_params, grain_moments, omega, power_integral_at, power_integral_inverse
from .closedform import radius_at_volume, sinh_integral  # noqa: F401 (benchmarks/tracer.py wraps radius_at_volume here)
from .rng import rounds, stream, streams  # noqa: F401 (benchmarks/tracer.py wraps stream here)


@dataclass(frozen=True)
class EstimateRecord:
    """A Monte Carlo estimate with its provenance and closed-form comparison."""

    quantity: str
    dim: int
    gamma: float
    grain_kind: str
    grain_params: str
    estimate: float
    stderr: float
    n_reps: int
    n_rays: int
    censored_fraction: float
    closed_form: float | None
    z_score: float | None
    seed: int
    runtime_ms: float


def make_record(
    quantity: str,
    dim: int,
    gamma: float,
    law: GrainLaw | None,
    values,
    closed_form: float | None,
    seed: int,
    t0: float,
    n_rays: int = 0,
    censored_fraction: float = 0.0,
) -> EstimateRecord:
    """Record of the mean of the per-replication values, with its stderr across them (ddof=1), its z
    against closed_form (None without a finite one) and the milliseconds since the perf_counter reading t0."""
    values = np.asarray(values, dtype=float)
    estimate, stderr = float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))
    z = None
    if closed_form is not None and math.isfinite(closed_form) and stderr > 0:
        z = (estimate - closed_form) / stderr
    kind, params = grain_kind_params(law)
    return EstimateRecord(
        quantity=quantity,
        dim=dim,
        gamma=gamma,
        grain_kind=kind,
        grain_params=params,
        estimate=estimate,
        stderr=stderr,
        n_reps=len(values),
        n_rays=n_rays,
        censored_fraction=censored_fraction,
        closed_form=closed_form,
        z_score=z,
        seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )


def max_sweep_depth(d: int) -> float:
    """Depth beyond which a radial sweep leaves double precision: its profiles grow like e^{(d-1)t}
    and a ray's direction caps shrink like e^{-2t}, and either passes 1e300 near exponent 700."""
    return 700.0 / max(d - 1, 2)


def check_replications(n_reps: int) -> None:
    """Standard errors are taken across replications, so an estimator needs at least two."""
    if n_reps < 2:
        raise ValueError(f"a standard error across replications needs n_reps >= 2, got {n_reps}")


# ---------------------------------------------------------------------------
# Vectorized hit kernels for rays based at the base point
# ---------------------------------------------------------------------------


def grain_hits_from_base(
    dirs: np.ndarray, g_dist: np.ndarray, g_dir: np.ndarray, g_rad: np.ndarray
) -> np.ndarray:
    """Hit parameters, shape (rays, grains), inf for misses.

    dirs are spatial parts of unit tangents at the base point; grains are
    given in polar form and must not contain the base point (g_dist > g_rad).

    A hit needs the grain inside the cone cos theta > 0,
    sinh^2 D (1 - cos^2 theta) <= cosh^2 r - 1 around the ray. The cone test
    runs on every pair with a slack that exceeds the rounding of the exact
    test; the transcendentals run only on the pairs inside it.
    """
    cos_raw = dirs @ g_dir.T
    sinh_d = np.sinh(g_dist)
    cosh_r = np.cosh(g_rad)
    lim = np.sqrt(np.maximum(0.0, (1.0 - 1e-15) - ((1.0 + 4e-15) * cosh_r**2 - 1.0) / sinh_d**2)) - 1e-9
    k = np.flatnonzero(cos_raw > np.maximum(lim, 0.0))  # flat indices of the pairs in the cone
    gi = k % len(g_dist)
    # clip is monotone and lim < 1, so clipping cannot move a pair across the cone test
    cos_t = np.minimum(cos_raw.ravel()[k], 1.0)
    g_dist, sinh_d, cosh_r = g_dist[gi], sinh_d[gi], cosh_r[gi]
    out = np.full(cos_raw.shape, np.inf)
    out.ravel()[k] = _grain_hit(cos_t, 1.0 - cos_t, 1.0 - cos_t**2, g_dist, sinh_d, cosh_r)
    return out


def _grain_hit(cos_t, vers, sin2, g_dist, sinh_d, cosh_r) -> np.ndarray:
    """Hit parameter, inf for a miss, of a ray at angle theta (cos_t > 0) to a grain's center direction,
    given cos theta, its versine 1 - cos theta and sin^2 theta, each as precise as the caller has it."""
    c = np.sqrt(1.0 + sinh_d**2 * sin2)
    t0 = 0.5 * np.log((np.cosh(g_dist) + sinh_d * cos_t) / (np.exp(-g_dist) + sinh_d * vers))
    t = t0 - np.arccosh(np.maximum(1.0, cosh_r / c))
    return np.where(c <= cosh_r, np.maximum(t, 0.0), np.inf)


def plane_hits_from_base(dirs: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Crossing parameters, shape (rays, planes), inf when the ray never crosses.

    The ray crosses where tanh t = rho = n_0 / <u, n> lies in (0, 1), which
    needs |<u, n>| > |n_0| with equal signs. Each normal is oriented to
    n_0 >= 0 (it is the same plane), so that test is one comparison per pair,
    and rho and arctanh run only on the pairs that pass it.
    """
    oriented = np.where(normals[:, :1] < 0.0, -normals, normals)
    un, n0 = dirs @ oriented[:, 1:].T, oriented[:, 0]
    k = np.flatnonzero(un > n0)  # flat indices of the pairs that can cross
    rho = n0[k % len(n0)] / un.ravel()[k]
    cross = (rho > 0.0) & (rho < 1.0)
    out = np.full(un.shape, np.inf)
    out.ravel()[k[cross]] = np.arctanh(rho[cross])
    return out


# ---------------------------------------------------------------------------
# Radial-sweep range sampling
# ---------------------------------------------------------------------------

# Expected obstacles per block: of the whole annulus for many rays, of the ray's direction cap for one
# ray. A capped block costs one sampler call per replication whatever it holds, so its target is small
# but not 1; an uncapped block of a few obstacles would multiply the blocks deep out.
_BLOCK_TARGET = 256
_CAP_BLOCK_TARGET = 8
# Single-ray replications per round, also of the segment crossings and (at most) of the intersection
# density; each keeps a live generator (about 2 KB). Rounds of many rays are smaller (see _rounds).
_ROUND_REPS = 512


def _whole(t_lo: float) -> float:
    return 1.0


@dataclass(frozen=True)
class _ObstacleProcess:
    """An obstacle process seen from the base point, as the radial sweep needs it.

    Obstacles within distance t have measure gamma * scale * power_integral(d-1, t, sign):
    grain centers the sinh profile with scale omega_d, hyperplanes the cosh profile
    with scale 2. An obstacle at distance t cannot meet a ray before t - margin.

    annulus draws a share(t_lo) of the obstacles at distance in [t_lo, t_hi),
    and blocks are sized to hold target of them on average. For many rays that
    share is 1. For a single ray annulus proposes only the direction cap in
    which an obstacle at distance t_lo can still reach the ray (the widest of
    the block's caps), thinned to the exact direction density, so share falls
    like e^{-(d-1) t_lo} while the profile grows like e^{(d-1) t}: a block then
    has about the same width at every depth, and a replication's draws and
    blocks grow linearly with its range.
    """

    d: int
    gamma: float
    sign: int
    scale: float
    margin: float
    annulus: Callable  # (t_lo, t_hi per replication, rngs) -> flat obstacle arrays, distances first, then counts
    hits: Callable  # ([dirs,] *obstacle arrays) -> hit parameters, (rays, obstacles) or, without dirs, (obstacles,)
    target: int
    share: Callable[[float], float] = _whole


@lru_cache(maxsize=2**15)
def _block_end(n: int, sign: int, per_block: float, t_lo: float) -> float:
    """The t whose profile measure exceeds that at t_lo by per_block. Every replication of a
    process walks the same block bounds, so they are cached."""
    return float(power_integral_inverse(n, power_integral_at(n, t_lo, sign) + per_block, sign))


def _sweep(proc: _ObstacleProcess, dirs: np.ndarray, cutoff: float, rngs: list) -> np.ndarray:
    """Ranges (censored at cutoff), shape (reps, rays), of a round of replications sweeping the obstacles outward.

    Replication i casts the rays dirs[i] (shape (reps, rays, d)) through the
    obstacles it draws from rngs[i]. Each block is the annulus from which
    proc.annulus draws proc.target obstacles on average; a replication stops
    once no farther obstacle can shorten any of its rays. The replications
    still sweeping share each block's bounds (only a replication's last block
    ends early, at its own stop) and its sampler call. With one ray each they
    share its kernel call too, whose hits are reduced per replication; with
    many rays each casts only its live rays through only its own obstacles,
    so that its kernel call is the one it would make alone.
    """
    n, sign = proc.d - 1, proc.sign
    best = np.full(dirs.shape[:2], cutoff)
    reps = np.arange(len(rngs))  # replications still sweeping
    t_lo = 0.0
    while True:
        ranges = best[reps]
        stop_at = ranges.max(axis=1) + proc.margin
        going = t_lo < stop_at - 1e-12
        if not going.all():
            reps, ranges, stop_at = reps[going], ranges[going], stop_at[going]
            if not len(reps):
                return best
        share = proc.share(t_lo)
        if not share > 0.0:
            raise ValueError(f"sweep depth {t_lo:.6g} is beyond double precision (see max_sweep_depth)")
        reach = _block_end(n, sign, proc.target / (proc.gamma * proc.scale * share), t_lo)
        t_hi = np.maximum(np.minimum(stop_at, reach), t_lo + 1e-6)
        *obstacles, counts = proc.annulus(t_lo, t_hi, [rngs[i] for i in reps])
        starts = np.cumsum(counts) - counts
        if dirs.shape[1] > 1:
            # Rays whose range is already below t_lo - margin cannot be shortened by this block.
            live = ranges > t_lo - proc.margin - 1e-9
            for j, (lo, m) in enumerate(zip(starts, counts)):
                r, rays = reps[j], np.flatnonzero(live[j])
                if m and len(rays):
                    own = [a[lo : lo + m] for a in obstacles]
                    best[r, rays] = np.minimum(best[r, rays], proc.hits(dirs[r, rays], *own).min(axis=1))
        elif counts.any():
            some = counts > 0  # reduceat would give a replication without obstacles its successor's first hit
            nearest = np.minimum.reduceat(proc.hits(*obstacles), starts[some])
            best[reps[some], 0] = np.minimum(ranges[some, 0], nearest)
        t_lo = max(reach, t_lo + 1e-6)


def _cap_grain_hits(g_dist: np.ndarray, vers: np.ndarray, g_rad: np.ndarray) -> np.ndarray:
    """Hit parameters of a ray on each grain, from the versines 1 - cos theta of the grains' angles to
    it; by isotropy the ray's direction does not enter."""
    return _grain_hit(1.0 - vers, vers, vers * (2.0 - vers), g_dist, np.sinh(g_dist), np.cosh(g_rad))


def _cap_plane_hits(p_dist: np.ndarray, vers: np.ndarray) -> np.ndarray:
    """Crossing parameters of a ray on each plane, from the versines w of the angles between it and
    the planes' normals.

    The ray crosses the plane at distance t where tanh s = tanh t / cos theta,
    that is at s = log((2 - g - w) / (g - w)) / 2 with g = 1 - tanh t, if w < g.
    Versines keep this precise where cos theta and tanh t both round to 1.
    """
    g = procsim.plane_cap_gap(p_dist)
    out = np.full(p_dist.shape, np.inf)
    k = vers < g
    out[k] = 0.5 * np.log((2.0 - g[k] - vers[k]) / (g[k] - vers[k]))
    return out


# The sweep over each process under its own name; benchmarks/tracer.py times
# the sweeps by wrapping these two attributes. One ray per replication sweeps
# the process restricted to that ray's direction cap.
def _boolean_ranges(d: int, gamma: float, law: GrainLaw, dirs, cutoff: float, rngs: list) -> np.ndarray:
    """Conditioned visibility ranges: the sweep over the grains not covering the base point."""
    m = law.max_radius
    if dirs.shape[1] == 1:
        annulus = partial(procsim.sample_boolean_cap_annuli, d, gamma, law)
        share = lambda t_lo: procsim.cap_share(d, procsim.grain_cap_gap(m, t_lo))  # noqa: E731
        proc = _ObstacleProcess(d, gamma, -1, omega(d), m, annulus, _cap_grain_hits, _CAP_BLOCK_TARGET, share)
    else:
        annulus = partial(procsim.sample_boolean_annulus, d, gamma, law)
        proc = _ObstacleProcess(d, gamma, -1, omega(d), m, annulus, grain_hits_from_base, _BLOCK_TARGET)
    return _sweep(proc, dirs, cutoff, rngs)


def _hyperplane_ranges(d: int, gamma: float, dirs, cutoff: float, rngs: list) -> np.ndarray:
    """Zero-cell visibility ranges: the sweep over the hyperplanes."""
    if dirs.shape[1] == 1:
        annulus = partial(procsim.sample_hyperplane_cap_annuli, d, gamma)
        share = lambda t_lo: procsim.cap_share(d, procsim.plane_cap_gap(t_lo))  # noqa: E731
        proc = _ObstacleProcess(d, gamma, 1, 2.0, 0.0, annulus, _cap_plane_hits, _CAP_BLOCK_TARGET, share)
    else:
        annulus = partial(procsim.sample_hyperplane_annulus, d, gamma)
        hits = lambda dirs, p_dist, normals: plane_hits_from_base(dirs, normals)  # noqa: E731
        proc = _ObstacleProcess(d, gamma, 1, 2.0, 0.0, annulus, hits, _BLOCK_TARGET)
    return _sweep(proc, dirs, cutoff, rngs)


def _rounds(d: int, n_reps: int, n_rays: int, cutoff: float, seed: int, ranges: Callable):
    """(first replication, ranges) of each round: ranges(dirs, cutoff, rngs) for its replications.

    A round holds at least one replication and at most _ROUND_REPS * _CAP_BLOCK_TARGET
    rays and expected obstacles per block. Replication i draws n_rays uniform
    directions and then its obstacles from stream(seed, i), so its ranges do
    not depend on the round it falls in. A round's generators are built as the
    round starts.
    """
    size = max(1, _ROUND_REPS * _CAP_BLOCK_TARGET // max(n_rays, _CAP_BLOCK_TARGET if n_rays == 1 else _BLOCK_TARGET))
    for first, rngs in rounds(seed, n_reps, size):
        dirs = procsim.unit_vectors(d, rngs, [n_rays] * len(rngs)).reshape(len(rngs), n_rays, d)
        yield first, ranges(dirs, cutoff, rngs)


def _single_ranges(d: int, n: int, cutoff: float, seed: int, ranges: Callable) -> tuple:
    """(values, censored) of n replications with one ray each."""
    values = np.empty(n)
    for first, round_ranges in _rounds(d, n, 1, cutoff, seed, ranges):
        values[first : first + len(round_ranges)] = round_ranges[:, 0]
    return values, values >= cutoff - 1e-12


def sample_visibility_ranges(
    d: int, gamma: float, law: GrainLaw, n: int, cutoff: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """n independent conditioned visibility ranges, one replication per range.

    Returns (values, censored). By isotropy the ranges' law does not depend on
    the ray's direction: the sweep samples only the grains in the ray's
    direction cap, by their angle to the ray.
    """
    return _single_ranges(d, n, cutoff, seed, partial(_boolean_ranges, d, gamma, law))


def sample_zero_cell_ranges(d: int, gamma: float, n: int, cutoff: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n independent visibility ranges through the hyperplane process, as in sample_visibility_ranges."""
    return _single_ranges(d, n, cutoff, seed, partial(_hyperplane_ranges, d, gamma))


# ---------------------------------------------------------------------------
# Replicated estimators
# ---------------------------------------------------------------------------


def estimate_visible_volume(
    d: int,
    gamma: float,
    law: GrainLaw,
    n_reps: int,
    n_rays: int,
    truncate_at: float | None,
    cutoff: float,
    seed: int,
) -> EstimateRecord:
    """Mean (truncated) visible volume over independent conditioned realizations.

    truncate_at=None targets the untruncated mean, which requires the rate
    gamma v* to exceed d-1; rays are then censored at the cutoff, whose
    exponential tail should be negligible against the standard error.
    """
    t0 = time.perf_counter()
    a = gamma * grain_moments(d, law).v_dm1_star
    if truncate_at is None:
        if a <= d - 1:
            raise ValueError(
                f"untruncated mean visible volume is infinite: gamma*v* = {a:.6g} <= d-1 = {d - 1} "
                f"(threshold gamma = {(d - 1) / grain_moments(d, law).v_dm1_star:.6g}); use a truncated estimate"
            )
        cap = cutoff
        closed = closedform.mean_visible_volume(d, gamma, law)
        quantity = "visvol"
    else:
        if truncate_at > cutoff + 1e-12:
            raise ValueError("truncate_at must not exceed cutoff")
        cap = truncate_at
        closed = closedform.truncated_visible_volume(d, gamma, law, truncate_at)
        quantity = "visvol_truncated"
    ranges = partial(_boolean_ranges, d, gamma, law)
    return _estimate_volume(quantity, d, gamma, law, n_reps, n_rays, cap, cutoff, closed, seed, ranges, t0)


def estimate_zero_cell_volume(
    d: int, gamma: float, n_reps: int, n_rays: int, cutoff: float, seed: int
) -> EstimateRecord:
    """Mean zero-cell volume of the hyperplane tessellation by ray sampling."""
    t0 = time.perf_counter()
    closed = closedform.zero_cell_mean_volume(d, gamma)
    if math.isinf(closed):
        raise ValueError(
            f"zero-cell mean volume is infinite: rate {closedform.zero_cell_rate(d, gamma):.6g} <= d-1 = {d - 1}"
        )
    ranges = partial(_hyperplane_ranges, d, gamma)
    return _estimate_volume("zero_cell", d, gamma, None, n_reps, n_rays, cutoff, cutoff, closed, seed, ranges, t0)


def _estimate_volume(quantity, d, gamma, law, n_reps, n_rays, cap, cutoff, closed, seed, ranges, t0) -> EstimateRecord:
    """Record of the mean over replications of omega_d times the ray average of int_0^{min(range, cap)} sinh^{d-1}."""
    check_replications(n_reps)
    rep_vals = np.empty(n_reps)
    n_censored = 0
    for first, round_ranges in _rounds(d, n_reps, n_rays, cutoff, seed, ranges):
        n_censored += int(np.sum(round_ranges >= cutoff - 1e-12))
        volumes = sinh_integral(d, np.minimum(round_ranges, cap))
        rep_vals[first : first + len(round_ranges)] = omega(d) * volumes.mean(axis=1)
    censored_fraction = n_censored / (n_reps * n_rays)
    return make_record(quantity, d, gamma, law, rep_vals, closed, seed, t0, n_rays, censored_fraction)


def estimate_segment_crossings(d: int, gamma: float, length: float, n_reps: int, seed: int) -> EstimateRecord:
    """Mean number of hyperplanes crossing a fixed segment from the base point.

    The invariant-measure (Crofton) value is gamma * 2 kappa_{d-1}/(d kappa_d)
    per unit length. Planes farther than the segment length cannot cross it,
    so sampling within that radius is exact. Replications are drawn in rounds
    of _ROUND_REPS, each from its own stream(seed, i), and one kernel call
    casts the segment through all of a round's planes.
    """
    check_replications(n_reps)
    t0 = time.perf_counter()
    direction = np.zeros((1, d))
    direction[0, 0] = 1.0
    counts = np.empty(n_reps)
    for first, rngs in rounds(seed, n_reps, _ROUND_REPS):
        normals, planes = procsim.sample_hyperplane_windows(d, gamma, length, rngs)
        crossed = plane_hits_from_base(direction, normals)[0] <= length
        counts[first : first + len(rngs)] = procsim._kept(planes, crossed)
    closed = gamma * closedform.zero_cell_rate(d, 1.0) * length
    return make_record("segment_crossings", d, gamma, None, counts, closed, seed, t0, n_rays=1)


# ---------------------------------------------------------------------------
# Depth-stratified truncated estimator (near-critical regime)
# ---------------------------------------------------------------------------


STRATIFIED_BAND_WIDTH = 0.5


@dataclass(frozen=True)
class StratifiedEstimate:
    """Truncated visible-volume estimates from depth-band survival products."""

    radii: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    closed_forms: tuple[float, ...]
    batch_values: np.ndarray  # (n_batches, len(radii)): each batch's estimate at each radius
    band_width: float
    band_survival: np.ndarray  # pooled survival fraction per band
    seed: int


def band_count(radius: float, band_width: float = STRATIFIED_BAND_WIDTH) -> int:
    """Number of depth bands of width band_width below radius, a positive multiple of band_width."""
    n = round(radius / band_width)
    if n < 1 or abs(n * band_width - radius) > 1e-9:
        raise ValueError(f"each radius must be a positive integer multiple of band_width {band_width}, got {radius}")
    return n


def estimate_visible_volume_stratified(
    d: int,
    gamma: float,
    law: GrainLaw,
    radii: tuple[float, ...],
    band_width: float = STRATIFIED_BAND_WIDTH,
    sims_per_band: int = 25_000,
    n_batches: int = 8,
    seed: int = 0,
) -> StratifiedEstimate:
    """Truncated mean visible volume at several radii by depth stratification.

    The first-touch parameters along a ray restricted to disjoint depth bands
    are independent Poisson restrictions, so the survival S(s_k) factorizes
    into band survival probabilities. Each band is estimated from independent
    geometric experiments (band_first_touches); the estimate at radius R is
    omega_d * sum_k S_k * c_k over bands below R, with c_k the mean band
    volume contribution. Unlike the plain ray estimator, the deep bands keep
    a controlled relative error, which is what the near-critical regime needs.

    Standard errors come from n_batches independent replicates of the whole
    scheme. Radii must be multiples of band_width.
    """
    radius_bands = np.array([band_count(r, band_width) for r in radii])
    n_bands = int(radius_bands.max())
    edges = band_width * np.arange(n_bands + 1)
    lower = sinh_integral(d, edges[:-1])
    batch_vals = np.empty((n_batches, len(radii)))
    survive_tally = np.zeros(n_bands)
    for b in range(n_batches):
        p_hat = np.empty(n_bands)
        c_hat = np.empty(n_bands)
        for k, rng in enumerate(streams(seed, b, count=n_bands)):
            first = procsim.band_first_touches(d, gamma, law, edges[k], edges[k + 1], sims_per_band, rng)
            p_hat[k] = float(np.mean(np.isinf(first)))
            upper = sinh_integral(d, np.minimum(first, edges[k + 1]))
            c_hat[k] = float(np.mean(upper - lower[k]))
        survive_tally += p_hat
        s_hat = np.concatenate([[1.0], np.cumprod(p_hat)[:-1]])
        contrib = omega(d) * np.cumsum(s_hat * c_hat)
        batch_vals[b] = contrib[radius_bands - 1]
    estimates = batch_vals.mean(axis=0)
    stderrs = batch_vals.std(axis=0, ddof=1) / math.sqrt(n_batches)
    closed = tuple(closedform.truncated_visible_volume(d, gamma, law, r) for r in radii)
    return StratifiedEstimate(
        radii=tuple(radii),
        estimates=tuple(float(v) for v in estimates),
        stderrs=tuple(float(v) for v in stderrs),
        closed_forms=closed,
        batch_values=batch_vals,
        band_width=band_width,
        band_survival=survive_tally / n_batches,
        seed=seed,
    )
