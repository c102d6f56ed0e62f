"""Ray casting against grains and hyperplanes, visibility ranges, and the
Monte Carlo estimators for (truncated) visible volume and zero-cell volume.
Each estimator first calls check_sweep, which refuses before any draw every
input it cannot serve.

Obstacles of both kinds come in polar form: distance, unit direction from
the base point (a grain's center, a plane's foot) and a grain's radius. By
isotropy a hit depends only on these and the versine w = 1 - cos theta of the
angle between the ray and that direction, so each kind has one exact hit
kernel in w (_grain_hits, _plane_hits). Many rays evaluate it at
w = 1 - min(cos theta, 1) only on the pairs that pass a one-comparison
prefilter (a cone for grains, cos theta > tanh t for planes) whose slack
exceeds the rounding of the kernel's own test: bit for bit as on every pair.
The estimators sweep the obstacle process radially outward from the base
point and stop once no farther obstacle can shorten any ray: a grain at
center distance D cannot hit before D - radius, nor a hyperplane at distance
t before t. The work follows the realized depth, not a window's volume, and
a block is cast only against the rays it can shorten.

A single ray (the range samplers behind the cdf quantities) needs only the
obstacles in its direction cap: a plane at distance t only if
cos theta > tanh t, a grain of radius <= m at distance D only if
theta < pi/2 and sinh D sin theta <= sinh m. Each block draws, besides
distances and radii, only the versines in the cap at its inner radius
(procsim.cap_versines): an exact Poisson restriction like the annulus
itself, and versines keep their precision where cos theta rounds to 1.
Blocks hold _CAP_BLOCK_TARGET expected obstacles of this capped measure, so
a replication reaching range R costs O(R) draws instead of e^{(d-1)R}. By
isotropy the capped sweep never reads the ray's direction, so a single-ray
replication draws none.

Many rays sweep whole annuli, in blocks of _BLOCK_TARGET expected obstacles,
until the caps of all n_rays rays hold less than the annulus
(n_rays * share(t_lo) <= 1). From there a block draws only the union of the
caps of the replication's live rays (procsim.sample_cap_union), with
_CAP_BLOCK_TARGET expected per cap and each point of the union drawn from
the first cap that holds it: again an exact Poisson restriction. Those
obstacles carry full directions and meet every live ray, as in the annulus blocks.

Replications are swept in rounds (see _map_rounds) that share each block's
bounds and sampler call, while each keeps its own generator from rng.streams
and makes its own draws in its own order: results are bit for bit
independent of round and chunk sizes. With many rays each replication
takes the product of its live rays with its own obstacles that it would take
alone, as a batched matrix product can move the last bits of a hit, and keeps
the pairs that pass the prefilter (_round_hits). Either way the hit kernel,
the minimum per ray and the write of the ranges (_nearest) run once per round
block, on the obstacles or pairs of all its replications.
Standard errors are taken across replications only.

A large run sweeps its rounds on every CPU it may use (fanout.map_rounds,
its work n_reps * n_rays for the ranges and the expected planes for the
segment crossings): W contiguous spans of whole rounds, the first swept
here and the rest in forked children, each building only its own span's
generators and sending back only its per-replication values. Records and
ranges are bit for bit those of the serial run, whatever W; so are the
stratified estimator's, whose batches fan out by fanout.map_spans.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import closedform, fanout, procsim
from .closedform import GrainLaw, grain_kind_params, omega, power_integral_at, power_integral_inverse
from .closedform import radius_at_volume, sinh_integral  # noqa: F401 (benchmarks/tracer.py wraps radius_at_volume here)
from .rng import stream, streams  # noqa: F401 (benchmarks/tracer.py wraps stream here)


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
    """Record of the mean of the per-replication values, with its stderr across them (ddof=1; exactly 0 where
    they are all equal, whose computed spread is only rounding), its z against closed_form (None without a
    finite one or a positive stderr) and the milliseconds since the perf_counter reading t0."""
    values = np.asarray(values, dtype=float)
    estimate = float(np.mean(values))
    stderr = 0.0 if np.all(values == values[0]) else float(np.std(values, ddof=1) / math.sqrt(len(values)))
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


def check_run(gamma: float, n_reps: int, seed: int, replicated: bool = True, **lengths: float | None) -> None:
    """Refuse what no estimator can serve: a gamma not finite and > 0, a seed < 0, a length (by name; None: not
    given) not finite, and n_reps below 1, below 2 where replicated, or beyond the resource guard."""
    for name, value in {"gamma": gamma, **lengths}.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not gamma > 0:
        raise ValueError("intensity gamma must be > 0")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if replicated and n_reps < 2:
        raise ValueError(f"a standard error across replications needs n_reps >= 2, got {n_reps}")
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if n_reps > procsim.MAX_EXPECTED_COUNT:
        raise procsim.ResourceGuardError(
            f"n_reps = {n_reps} exceeds the resource guard {procsim.MAX_EXPECTED_COUNT:.0e}"
        )


def check_sweep(
    quantity, d, gamma, law, n_reps, cutoff, seed, n_rays=None, truncate_at=None, stratified=False, replicated=True
) -> None:
    """Refuse, before any generator is built, a sweep of quantity (named in the messages) that this module cannot
    serve: by ValueError, or procsim.ResourceGuardError beyond the resource guard. Every estimator here and
    `hypervis estimate` call it. The sweep passes the grains of law (hyperplanes for None) out to cutoff in n_reps
    replications, with a standard error across them if replicated. n_rays rays per replication average volumes
    within truncate_at or else the mean, which must be finite (the paper's a > d - 1); without n_rays a
    replication sweeps one ray, or if replicated draws the planes that can cross a segment of length cutoff.
    A replication's first draw, of the first sweep block or the segment's planes, is refused beyond the guard.
    With stratified, the stratified estimator's STRATIFIED_BATCHES batches stand in for n_reps (None there)
    and its bands reach the cutoff."""
    closedform.Constants.for_dim(d)  # 2 <= d <= 341
    if stratified:
        n_reps = STRATIFIED_BATCHES
    check_run(gamma, n_reps, seed, replicated, cutoff=cutoff, truncate_at=truncate_at)
    guard = procsim.MAX_EXPECTED_COUNT
    if n_rays is not None and n_rays < 1:
        raise ValueError(f"n_rays must be >= 1, got {n_rays}")
    if n_rays is not None and n_rays * _BLOCK_TARGET > guard:  # the many-ray sweep casts every ray against each block
        raise procsim.ResourceGuardError(
            f"n_rays = {n_rays} exceeds the resource guard: n_rays x {_BLOCK_TARGET} obstacles "
            f"per sweep block = {n_rays * _BLOCK_TARGET:.3g} ray-obstacle pairs > {guard:.0e}"
        )
    if not cutoff > 0:
        raise ValueError("cutoff must be > 0")
    a = closedform.range_rate(d, gamma, law)
    if n_rays is not None and truncate_at is None and math.isinf(closedform.sinh_exp_integral(d, a)):
        raise ValueError(
            f"mean {'visible' if law else 'zero-cell'} volume is infinite at range rate a = {a:.6g} <= d-1 = {d - 1}; "
            f"finiteness needs gamma > {(d - 1) * gamma / a:.6g}"
        )
    if n_rays is not None or stratified:  # ranges of mean 1/a give volumes near vol B(1/a)
        with np.errstate(over="ignore", invalid="ignore"):  # a long mean range has volume inf or nan
            volume = float(closedform.ball_volume(d, 1.0 / a)) if a > 0 else math.inf
        if volume < sys.float_info.min:
            raise ValueError(
                f"{quantity} averages ray volumes near vol B(1/a) = {volume:.3g} at mean range "
                f"1/a = {1.0 / a:.6g}, which underflows double precision; every estimate would read 0"
            )
    obs, single = procsim.Obstacles(d, gamma, law), (n_rays or 1) == 1
    m = obs.margin
    deepest = 700.0 / max(d - 1, 2)  # profiles grow like e^{(d-1)t}, caps shrink like e^{-2t}: 1e300 near 700
    if cutoff + m > deepest:
        raise ValueError(
            f"cutoff {cutoff} sweeps to depth {cutoff + m:.6g}, beyond the {deepest:.6g} that double precision "
            f"allows in d = {d}"
        )
    if law and not stratified and single and obs.share(cutoff + m) == 0.0:
        raise ValueError(
            f"grain radius {m:g} is too small for the single-ray sweep to cutoff {cutoff:g}: the directions from "
            f"which a grain at depth {cutoff + m:.6g} can reach the ray have share 0 in double precision"
        )
    if truncate_at is not None and truncate_at > cutoff:
        raise ValueError(f"truncate_at {truncate_at} exceeds cutoff {cutoff}")
    if truncate_at is not None and truncate_at < 0:
        raise ValueError(f"truncate_at must be >= 0, got {truncate_at}")
    if stratified:
        band_count(cutoff)
        procsim.band_grains(d, gamma, law, 0.0, STRATIFIED_BAND_WIDTH, STRATIFIED_SIMS)
        return
    if law:  # a grain sweep ends past the largest grain radius, so each replication samples the grains within it
        near = n_reps * gamma * float(closedform.ball_volume(d, m))
        if near > guard:
            raise procsim.ResourceGuardError(
                f"{quantity} samples n_reps * gamma * vol B(max radius) = {near:.3g} grains near the base "
                f"point, beyond the resource guard {guard:.0e}"
            )
    if n_rays is None and replicated:  # a segment: each replication draws the planes within its length at once
        first, what = gamma * procsim.plane_measure(d, cutoff), f"planes within {cutoff:g} of the base point"
    else:  # a sweep: each replication draws its first block, at least _MIN_BLOCK_WIDTH wide, first
        share = obs.share(0.0) if single else 1.0  # one ray sweeps its direction cap, many rays whole annuli
        first = obs.gamma * obs.scale * share * power_integral_at(d - 1, _MIN_BLOCK_WIDTH, obs.sign)
        what = f"obstacles in its first sweep block, at least {_MIN_BLOCK_WIDTH:g} wide"
    if first > guard:
        raise procsim.ResourceGuardError(
            f"{quantity} expects {first:.3g} {what} per replication, which exceeds resource guard {guard:.0e}"
        )


# ---------------------------------------------------------------------------
# Vectorized hit kernels for rays based at the base point
# ---------------------------------------------------------------------------


def grain_hits_from_base(
    dirs: np.ndarray, g_dist: np.ndarray, g_dir: np.ndarray, g_rad: np.ndarray
) -> np.ndarray:
    """Hit parameters, shape (rays, grains), inf for misses.

    dirs are spatial parts of unit tangents at the base point; grains are
    given in polar form and must not contain the base point (g_dist > g_rad).
    """
    return _hits_from_base(dirs, (g_dist, g_dir, g_rad), _grain_bounds, _grain_hits)


def plane_hits_from_base(dirs: np.ndarray, p_dist: np.ndarray, p_dir: np.ndarray) -> np.ndarray:
    """Crossing parameters, shape (rays, planes), inf when the ray never crosses.

    Planes are given in polar form, like grains: the distance of each plane
    from the base point and the unit direction from the base point to its foot.
    """
    return _hits_from_base(dirs, (p_dist, p_dir), _plane_bounds, _plane_hits)


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
    g = procsim.plane_cap_gap(p_dist)
    with np.errstate(divide="ignore", invalid="ignore"):  # w >= g never crosses; np.where drops those
        s = 0.5 * np.log((2.0 - g - vers) / (g - vers))
    return np.where(vers < g, s, np.inf)


def _pairs(dirs: np.ndarray, cols: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(flat indices into the (rays, obstacles) products cos theta = dirs @ cols.T, versines 1 - cos theta)
    of the pairs whose product exceeds its obstacle's bound, the only pairs that can hit. A product of unit
    vectors can round above 1; its versine is 0."""
    prod = dirs @ cols.T
    k = np.flatnonzero(prod > bounds)
    return k, 1.0 - np.minimum(prod.ravel()[k], 1.0)


def _hits_from_base(dirs: np.ndarray, obstacles: tuple, bound: Callable, hit: Callable) -> np.ndarray:
    """Hits of the rays dirs on the obstacles (distances, directions, *marks), shape (rays, obstacles)."""
    dists, cols, *marks = obstacles
    k, vers = _pairs(dirs, cols, bound(dists, *marks))
    j = k % len(dists)
    out = np.full((len(dirs), len(dists)), np.inf)
    out.ravel()[k] = hit(dists[j], vers, *(m[j] for m in marks))
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
# density; each keeps a live generator (about 2 KB). Rounds of many rays are smaller (see _round_size).
_ROUND_REPS = 512
# The narrowest block: a block whose target is reached closer to its inner radius is widened to this.
_MIN_BLOCK_WIDTH = 1e-6


@lru_cache(maxsize=2**15)
def _block_end(n: int, sign: int, per_block: float, t_lo: float) -> float:
    """The t whose profile measure exceeds that at t_lo by per_block. Every replication of a
    process walks the same block bounds, so they are cached."""
    return float(power_integral_inverse(n, power_integral_at(n, t_lo, sign) + per_block, sign))


def _sweep(obs: procsim.Obstacles, dirs: np.ndarray | None, cutoff: float, rngs: list) -> np.ndarray:
    """Ranges (censored at cutoff), shape (reps, rays), of a round of replications sweeping the obstacles outward.

    Replication i casts the rays dirs[i] (shape (reps, rays, d)), or for dirs
    None one ray whose direction the capped sweep never reads, through the
    obstacles it draws from rngs[i], block by block, and stops once no farther
    obstacle can shorten any of its rays. The replications still sweeping
    share each block's bounds (only a replication's last block ends early, at
    its own stop) and its sampler call. A capped block holds _CAP_BLOCK_TARGET
    expected obstacles per ray in the cap of versine obs.gap(t_lo), the widest
    of its caps: obs.share falls like e^{-(d-1) t} while the profile grows like
    e^{(d-1) t}, so capped blocks have about the same width at every depth.
    One ray sweeps its cap, and a round shares its kernel call. Many rays cap
    their blocks as the module docstring says, unless a capped block could
    hold more ray-obstacle pairs than the resource guard, and each replication
    casts only its live rays through its own obstacles (_round_hits).
    """
    n, n_rays, grains = obs.d - 1, 1 if dirs is None else dirs.shape[1], obs.law is not None
    bound, hit = (_grain_bounds, _grain_hits) if grains else (_plane_bounds, _plane_hits)
    capped, can_cap = n_rays == 1, n_rays * n_rays * _CAP_BLOCK_TARGET <= procsim.MAX_EXPECTED_COUNT
    best = np.full((len(rngs), n_rays), cutoff)
    reps = np.arange(len(rngs))  # replications still sweeping
    t_lo = 0.0
    while True:
        ranges = best[reps]
        stop_at = ranges.max(axis=1) + obs.margin
        going = t_lo < stop_at - 1e-12
        if not going.all():
            reps, ranges, stop_at = reps[going], ranges[going], stop_at[going]
            if not len(reps):
                return best
        if not capped and can_cap:  # caps only narrow with depth, so every later block is capped too
            capped = 0.0 < n_rays * obs.share(t_lo) <= 1.0
        share, target = (obs.share(t_lo), _CAP_BLOCK_TARGET) if capped else (1.0, _BLOCK_TARGET)
        reach = _block_end(n, obs.sign, target / (obs.gamma * obs.scale * share), t_lo)
        t_hi = np.maximum(np.minimum(stop_at, reach), t_lo + _MIN_BLOCK_WIDTH)
        drawing = [rngs[i] for i in reps]
        if n_rays == 1:
            *obstacles, counts = procsim.sample_cap_annuli(obs, t_lo, t_hi, drawing)
            _nearest(best, np.repeat(reps, counts), hit(*obstacles))
        else:
            # Rays whose range is already below t_lo - margin cannot be shortened by this block.
            live = ranges > t_lo - obs.margin - 1e-9
            if capped:
                live_rays = [dirs[r, alive] for r, alive in zip(reps, live)]
                *obstacles, counts = procsim.sample_cap_union(obs, t_lo, t_hi, drawing, live_rays)
            elif grains:  # the named samplers, where benchmarks/tracer.py times the annuli
                *obstacles, counts = procsim.sample_boolean_annulus(obs.d, obs.gamma, obs.law, t_lo, t_hi, drawing)
            else:
                *obstacles, counts = procsim.sample_hyperplane_annulus(obs.d, obs.gamma, t_lo, t_hi, drawing)
            _round_hits(best, reps, live, obstacles, counts, dirs, bound, hit)
        t_lo = max(reach, t_lo + _MIN_BLOCK_WIDTH)


def _round_hits(best, reps, live, obstacles: tuple, counts, dirs, bound: Callable, hit: Callable) -> None:
    """Shorten the ranges best of a round's replications reps by one block: replication reps[j] drew the
    next counts[j] of the obstacles (distances, directions, *marks), flat in replication order, and casts
    its live rays dirs[reps[j], live[j]].

    Each replication takes its own product of its live rays with its own
    obstacles, as it would alone (a batched product can move the last bits of
    a hit), and keeps the pairs that pass the prefilter. The hits of the
    pairs of all replications, their minimum per ray and the write into best
    then run once.
    """
    dists, cols, *marks = obstacles
    bounds = bound(dists, *marks)
    n_rays = best.shape[1]
    versines, obstacle, cell = [], [], []
    for lo, m, r, alive in zip(np.cumsum(counts) - counts, counts, reps, live):
        rays = np.flatnonzero(alive)
        if m and len(rays):
            k, vers = _pairs(dirs[r, rays], cols[lo : lo + m], bounds[lo : lo + m])
            row, col = np.divmod(k, m)
            versines.append(vers)
            obstacle.append(lo + col)
            cell.append(r * n_rays + rays[row])
    if cell:  # flat indices into best, in order: replications, rays and pairs run in order
        j = np.concatenate(obstacle)
        _nearest(best, np.concatenate(cell), hit(dists[j], np.concatenate(versines), *(a[j] for a in marks)))


def _nearest(best: np.ndarray, cell: np.ndarray, hits: np.ndarray) -> None:
    """Shorten the ranges best, at the flat indices cell (each index in one run), to their nearest hits."""
    if len(cell):
        first = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
        cell = cell[first]
        flat = best.reshape(-1)
        flat[cell] = np.minimum(flat[cell], np.minimum.reduceat(hits, first))


# The sweep over each process under its own name; benchmarks/tracer.py times
# the sweeps by wrapping these two attributes.
def _boolean_ranges(d: int, gamma: float, law: GrainLaw, dirs, cutoff: float, rngs: list) -> np.ndarray:
    """Conditioned visibility ranges: the sweep over the grains not covering the base point."""
    return _sweep(procsim.Obstacles(d, gamma, law), dirs, cutoff, rngs)


def _hyperplane_ranges(d: int, gamma: float, dirs, cutoff: float, rngs: list) -> np.ndarray:
    """Zero-cell visibility ranges: the sweep over the hyperplanes."""
    return _sweep(procsim.Obstacles(d, gamma), dirs, cutoff, rngs)


def _round_size(n_rays: int) -> int:
    """Replications per round of n_rays rays each: at least one, and at most _ROUND_REPS * _CAP_BLOCK_TARGET
    rays and as many expected obstacles per annulus block."""
    return max(1, _ROUND_REPS * _CAP_BLOCK_TARGET // max(n_rays, _CAP_BLOCK_TARGET if n_rays == 1 else _BLOCK_TARGET))


def _map_rounds(d: int, n_reps: int, n_rays: int, cutoff: float, seed: int, ranges: Callable, per_round: Callable):
    """per_round(ranges(dirs, cutoff, rngs)) of each round of fanout.map_rounds (work: the rays), a tuple of
    per-replication arrays. Replication i draws from stream(seed, i) its obstacles, after n_rays uniform
    directions where n_rays > 1 (one ray gets dirs None: its capped sweep reads no direction)."""

    def sweep(rngs: list) -> tuple:
        dirs = None if n_rays == 1 else procsim.unit_vectors(d, rngs, [n_rays] * len(rngs)).reshape(-1, n_rays, d)
        return per_round(ranges(dirs, cutoff, rngs))

    return fanout.map_rounds(sweep, seed, n_reps, _round_size(n_rays), n_reps * n_rays)


def _single_ranges(d: int, n: int, cutoff: float, seed: int, ranges: Callable) -> tuple:
    """(values, censored) of n replications with one ray each."""
    (values,) = _map_rounds(d, n, 1, cutoff, seed, ranges, lambda round_ranges: (round_ranges[:, 0],))
    return values, values >= cutoff - 1e-12


def sample_visibility_ranges(
    d: int, gamma: float, law: GrainLaw, n: int, cutoff: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """n independent conditioned visibility ranges, one replication per range.

    Returns (values, censored). By isotropy the ranges' law does not depend on
    the ray's direction: the sweep samples only the grains in the ray's
    direction cap, by their angle to the ray.
    """
    check_sweep("cdf_boolean", d, gamma, law, n, cutoff, seed, replicated=False)
    return _single_ranges(d, n, cutoff, seed, partial(_boolean_ranges, d, gamma, law))


def sample_zero_cell_ranges(d: int, gamma: float, n: int, cutoff: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n independent visibility ranges through the hyperplane process, as in sample_visibility_ranges."""
    check_sweep("cdf_tessellation", d, gamma, None, n, cutoff, seed, replicated=False)
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

    Ranges are censored at the cutoff, so the estimate targets the mean within c = min(truncate_at, cutoff),
    omega_d int_0^c sinh^{d-1}(t) e^{-at} dt with a = gamma v*. closed_form is that mean at c = truncate_at, or
    without truncate_at the untruncated mean (finite only for a > d-1), whose tail beyond the cutoff the
    estimate misses: at d = 2, pi (e^{-(a-1)c}/(a-1) - e^{-(a+1)c}/(a+1)), 0.0065 for criterion 2. The
    zero cell, whose tail is larger, takes its closed_form within the cutoff.
    """
    t0 = time.perf_counter()
    quantity = "visvol" if truncate_at is None else "visvol_truncated"
    check_sweep(quantity, d, gamma, law, n_reps, cutoff, seed, n_rays, truncate_at)
    if truncate_at is None:
        cap, closed = cutoff, closedform.mean_visible_volume(d, gamma, law)
    else:
        cap, closed = truncate_at, closedform.truncated_visible_volume(d, gamma, law, truncate_at)
    ranges = partial(_boolean_ranges, d, gamma, law)
    return _estimate_volume(quantity, d, gamma, law, n_reps, n_rays, cap, cutoff, closed, seed, ranges, t0)


def estimate_zero_cell_volume(
    d: int, gamma: float, n_reps: int, n_rays: int, cutoff: float, seed: int
) -> EstimateRecord:
    """Mean zero-cell volume by ray sampling, refused unless it is finite. The ranges are censored at the
    cutoff, so closed_form (and the z) is the mean the estimate targets, the mean within the cutoff
    (truncated_visible_volume at the zero-cell rate): at criterion 5's cutoff 12 it lacks a tail of 0.433
    of the mean 10.116, against standard errors of 0.3-1.3."""
    t0 = time.perf_counter()
    check_sweep("zero_cell", d, gamma, None, n_reps, cutoff, seed, n_rays)
    closed = closedform.truncated_visible_volume(d, gamma, None, cutoff)
    ranges = partial(_hyperplane_ranges, d, gamma)
    return _estimate_volume("zero_cell", d, gamma, None, n_reps, n_rays, cutoff, cutoff, closed, seed, ranges, t0)


def _estimate_volume(quantity, d, gamma, law, n_reps, n_rays, cap, cutoff, closed, seed, ranges, t0) -> EstimateRecord:
    """Record of the mean over replications of omega_d times the ray average of int_0^{min(range, cap)} sinh^{d-1}."""

    def volumes(round_ranges: np.ndarray) -> tuple:  # per replication: volume, censored rays
        volume = omega(d) * sinh_integral(d, np.minimum(round_ranges, cap)).mean(axis=1)
        return volume, np.sum(round_ranges >= cutoff - 1e-12, axis=1)

    rep_vals, censored = _map_rounds(d, n_reps, n_rays, cutoff, seed, ranges, volumes)
    censored_fraction = int(censored.sum()) / (n_reps * n_rays)
    return make_record(quantity, d, gamma, law, rep_vals, closed, seed, t0, n_rays, censored_fraction)


def estimate_segment_crossings(d: int, gamma: float, length: float, n_reps: int, seed: int) -> EstimateRecord:
    """Mean number of hyperplanes crossing a fixed segment from the base point.

    The invariant-measure (Crofton) value is gamma * 2 kappa_{d-1}/(d kappa_d)
    per unit length. Planes farther than the segment length cannot cross it,
    so sampling the annulus [0, length] (check_sweep's cutoff, which refuses
    more planes there than the resource guard) is exact. Replications are
    drawn in rounds of _ROUND_REPS by fanout.map_rounds (work: the expected
    planes), each from its own stream(seed, i): one
    procsim.sample_hyperplane_annulus call per round draws each replication's
    count, distances and directions in that order, and one kernel call casts
    the segment through all of the round's planes.
    """
    t0 = time.perf_counter()
    check_sweep("segment_crossings", d, gamma, None, n_reps, length, seed)
    direction = np.zeros((1, d))
    direction[0, 0] = 1.0

    def cross(rngs: list) -> tuple:
        p_dist, p_dir, planes = procsim.sample_hyperplane_annulus(d, gamma, 0.0, [length] * len(rngs), rngs)
        return (procsim._kept(planes, plane_hits_from_base(direction, p_dist, p_dir)[0] <= length),)

    (counts,) = fanout.map_rounds(cross, seed, n_reps, _ROUND_REPS, n_reps * gamma * procsim.plane_measure(d, length))
    closed = gamma * closedform.zero_cell_rate(d, 1.0) * length
    return make_record("segment_crossings", d, gamma, None, counts, closed, seed, t0, n_rays=1)


# ---------------------------------------------------------------------------
# Depth-stratified truncated estimator (near-critical regime)
# ---------------------------------------------------------------------------


# The stratified estimator's band width, band experiments per band and batch, and batches.
STRATIFIED_BAND_WIDTH, STRATIFIED_SIMS, STRATIFIED_BATCHES = 0.5, 25_000, 8


def band_count(radius: float) -> int:
    """Number of depth bands of width STRATIFIED_BAND_WIDTH below radius, a positive multiple of that width."""
    n = round(radius / STRATIFIED_BAND_WIDTH)
    if n < 1 or abs(n * STRATIFIED_BAND_WIDTH - radius) > 1e-9:
        raise ValueError(
            f"each radius must be a positive integer multiple of band_width {STRATIFIED_BAND_WIDTH}, got {radius}"
        )
    return n


def estimate_visible_volume_stratified(
    d: int, gamma: float, law: GrainLaw, radii: tuple[float, ...], seed: int = 0
) -> list[EstimateRecord]:
    """Truncated mean visible volume at each of radii by depth stratification: one visvol_truncated record per
    radius, in order, each against truncated_visible_volume there and all timed from one start.

    The first-touch parameters along a ray restricted to disjoint depth bands
    are independent Poisson restrictions, so the survival S(s_k) factorizes
    into band survival probabilities. Each band is estimated from
    STRATIFIED_SIMS independent geometric experiments (band_first_touches);
    the estimate at radius R is omega_d * sum_k S_k * c_k over bands below R,
    with c_k the mean band volume contribution. Unlike the plain ray
    estimator, the deep bands keep a controlled relative error, which is what
    the near-critical regime needs.

    Standard errors come from STRATIFIED_BATCHES independent replicates of
    the whole scheme, which are the records' replications. Radii must be
    one or more finite multiples of STRATIFIED_BAND_WIDTH, all > 0. Batch b
    draws band k from streams(seed, b)'s k-th generator, so the batches are
    rounds of one for fanout.map_spans, whose work is batches x
    STRATIFIED_SIMS x bands; the records do not depend on the number of
    processes.
    """
    t0 = time.perf_counter()
    if len(radii) == 0 or not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError(f"radii must be one or more finite values > 0, got {tuple(radii)}")
    check_sweep("visvol_truncated", d, gamma, law, None, max(radii), seed, stratified=True)
    radius_bands = np.array([band_count(r) for r in radii])
    n_bands = int(radius_bands.max())
    edges = STRATIFIED_BAND_WIDTH * np.arange(n_bands + 1)
    lower = sinh_integral(d, edges[:-1])

    def batches(lo: int, hi: int) -> np.ndarray:
        vals = np.empty((hi - lo, len(radii)))
        for b in range(lo, hi):
            p_hat = np.empty(n_bands)
            c_hat = np.empty(n_bands)
            for k, rng in enumerate(streams(seed, b, count=n_bands)):
                first = procsim.band_first_touches(d, gamma, law, edges[k], edges[k + 1], STRATIFIED_SIMS, rng)
                p_hat[k] = float(np.mean(np.isinf(first)))
                upper = sinh_integral(d, np.minimum(first, edges[k + 1]))
                c_hat[k] = float(np.mean(upper - lower[k]))
            s_hat = np.concatenate([[1.0], np.cumprod(p_hat)[:-1]])
            contrib = omega(d) * np.cumsum(s_hat * c_hat)
            vals[b - lo] = contrib[radius_bands - 1]
        return vals

    work = STRATIFIED_BATCHES * STRATIFIED_SIMS * n_bands
    batch_vals = np.concatenate(fanout.map_spans(batches, STRATIFIED_BATCHES, 1, work))
    closed = [closedform.truncated_visible_volume(d, gamma, law, r) for r in radii]
    return [make_record("visvol_truncated", d, gamma, law, v, c, seed, t0) for v, c in zip(batch_vals.T, closed)]
