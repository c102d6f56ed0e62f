"""Ray casting against grains and hyperplanes, visibility ranges, and the
Monte Carlo estimators for (truncated) visible volume and zero-cell volume.

The scalar hit tests are exact closed forms from hyperbolic trigonometry.
The estimators sweep the obstacle process radially outward from the base
point and stop once no farther obstacle can shorten any ray: a grain at
center distance D cannot produce a hit before D - radius, and a hyperplane
at distance t cannot be crossed before t. This keeps the work proportional
to the realized visibility depth instead of the simulation window volume.

Replication r of a run with master seed s draws from stream(s, r), so runs
are reproducible and order independent. Rays inside one replication share
the realization and are dependent; standard errors are computed across
replications only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import closedform, procsim
from .closedform import GrainLaw, grain_kind_params, grain_moments, omega, power_integral, power_integral_inverse
from .closedform import radius_at_volume, sinh_integral  # noqa: F401 (benchmarks/tracer.py wraps radius_at_volume here)
from .hypgeom import GeodesicRay, dist, minkowski_dot
from .procsim import BallGrain, BooleanModelSample, Hyperplane, HyperplaneSample
from .rng import stream

_HIT_EPS = 1e-12


@dataclass(frozen=True)
class VisibilitySample:
    """One visibility range; censored means the ray left the window uncovered."""

    value: float
    censored: bool


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
    estimate: float,
    stderr: float,
    n_reps: int,
    n_rays: int,
    censored_fraction: float,
    closed_form: float | None,
    seed: int,
    runtime_ms: float,
) -> EstimateRecord:
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
        n_reps=n_reps,
        n_rays=n_rays,
        censored_fraction=censored_fraction,
        closed_form=closed_form,
        z_score=z,
        seed=seed,
        runtime_ms=runtime_ms,
    )


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
# Vectorized hit kernels for rays based at the base point
# ---------------------------------------------------------------------------


def grain_hits_from_base(
    dirs: np.ndarray, g_dist: np.ndarray, g_dir: np.ndarray, g_rad: np.ndarray
) -> np.ndarray:
    """Hit parameters, shape (rays, grains), inf for misses.

    dirs are spatial parts of unit tangents at the base point; grains are
    given in polar form and must not contain the base point (g_dist > g_rad).
    """
    cos_t = np.clip(dirs @ g_dir.T, -1.0, 1.0)
    sinh_d = np.sinh(g_dist)
    c = np.sqrt(1.0 + sinh_d**2 * (1.0 - cos_t**2))
    cosh_r = np.cosh(g_rad)
    hit = (cos_t > 0.0) & (c <= cosh_r)
    a_plus_b = np.cosh(g_dist) + sinh_d * cos_t
    a_minus_b = np.exp(-g_dist) + sinh_d * (1.0 - cos_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = 0.5 * np.log(a_plus_b / a_minus_b)
        t = t0 - np.arccosh(np.maximum(1.0, cosh_r / c))
    return np.where(hit, np.maximum(t, 0.0), np.inf)


def plane_hits_from_base(dirs: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Crossing parameters, shape (rays, planes), inf when the ray never crosses."""
    un = dirs @ normals[:, 1:].T
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = normals[:, 0] / un
        t = np.arctanh(np.clip(rho, 0.0, 1.0 - 1e-16))
    return np.where((rho > 0.0) & (rho < 1.0), t, np.inf)


# ---------------------------------------------------------------------------
# Radial-sweep range sampling
# ---------------------------------------------------------------------------

_BLOCK_TARGET = 256


def _spatial_direction(d: int, direction: np.ndarray | None) -> np.ndarray | None:
    """(1, d) spatial row from a full tangent or spatial vector; None passes through."""
    if direction is None:
        return None
    direction = np.asarray(direction, dtype=float)
    if direction.shape[0] == d + 1:
        direction = direction[1:]
    return direction[None, :]


@dataclass(frozen=True)
class _ObstacleProcess:
    """An obstacle process seen from the base point, as the radial sweep needs it.

    Obstacles within distance t have measure gamma * scale * power_integral(d-1, t, sign):
    grain centers the sinh profile with scale omega_d, hyperplanes the cosh profile
    with scale 2. An obstacle at distance t cannot meet a ray before t - margin.
    """

    d: int
    gamma: float
    sign: int
    scale: float
    margin: float
    annulus: Callable  # (t_lo, t_hi, rng) -> obstacle arrays, distances first
    hits: Callable  # (dirs, *obstacle arrays) -> hit parameters, shape (rays, obstacles)


def _sweep(proc: _ObstacleProcess, dirs: np.ndarray, cutoff: float, rng: np.random.Generator) -> np.ndarray:
    """Ranges (censored at cutoff) of rays from the base point, sweeping the obstacles outward.

    Each block is the annulus holding _BLOCK_TARGET expected obstacles; the
    sweep stops once no farther obstacle can shorten any ray.
    """
    n, sign = proc.d - 1, proc.sign
    per_block = _BLOCK_TARGET / (proc.gamma * proc.scale)
    best = np.full(len(dirs), cutoff)
    t_lo = 0.0
    while True:
        stop_at = float(best.max()) + proc.margin
        if t_lo >= stop_at - 1e-12:
            break
        reach = float(power_integral_inverse(n, power_integral(n, t_lo, sign) + per_block, sign))
        t_hi = max(min(stop_at, reach), t_lo + 1e-6)
        obstacles = proc.annulus(t_lo, t_hi, rng)
        if len(obstacles[0]):
            # Holding the hit matrix until the next block keeps the allocator from
            # returning and re-faulting its pages on every kernel call (30% at d = 2).
            hits = proc.hits(dirs, *obstacles)
            np.minimum(best, hits.min(axis=1), out=best)
        t_lo = t_hi
    return best


# The sweep over each process under its own name; benchmarks/tracer.py times
# the sweeps by wrapping these two attributes.
def _boolean_ranges(d: int, gamma: float, law: GrainLaw, dirs, cutoff: float, rng: np.random.Generator) -> np.ndarray:
    """Conditioned visibility ranges: the sweep over the grains not covering the base point."""
    annulus = partial(procsim.sample_boolean_annulus, d, gamma, law)
    proc = _ObstacleProcess(d, gamma, -1, omega(d), law.max_radius, annulus, grain_hits_from_base)
    return _sweep(proc, dirs, cutoff, rng)


def _hyperplane_ranges(d: int, gamma: float, dirs, cutoff: float, rng: np.random.Generator) -> np.ndarray:
    """Zero-cell visibility ranges: the sweep over the hyperplanes."""
    annulus = partial(procsim.sample_hyperplane_annulus, d, gamma)
    proc = _ObstacleProcess(
        d, gamma, 1, 2.0, 0.0, annulus, lambda dirs, p_dist, normals: plane_hits_from_base(dirs, normals)
    )
    return _sweep(proc, dirs, cutoff, rng)


def _replications(d: int, n_reps: int, n_rays: int, cutoff: float, seed: int, ranges: Callable, direction=None):
    """Each replication's ranges(dirs, cutoff, rng) for n_rays uniform directions or the one fixed direction.

    Replication i draws from stream(seed, i).
    """
    fixed = _spatial_direction(d, direction)
    for i in range(n_reps):
        rng = stream(seed, i)
        dirs = procsim.unit_vectors(d, rng, n_rays) if fixed is None else fixed
        yield ranges(dirs, cutoff, rng)


def _single_ranges(d: int, n: int, cutoff: float, seed: int, ranges: Callable, direction) -> tuple:
    """(values, censored) of n replications with one ray each."""
    values = np.fromiter((r[0] for r in _replications(d, n, 1, cutoff, seed, ranges, direction)), float, count=n)
    return values, values >= cutoff - 1e-12


def sample_visibility_ranges(
    d: int,
    gamma: float,
    law: GrainLaw,
    n: int,
    cutoff: float,
    seed: int,
    direction: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """n independent conditioned visibility ranges, one replication per range.

    Returns (values, censored). A fixed spatial direction can be supplied;
    by default each replication draws a fresh uniform direction.
    """
    return _single_ranges(d, n, cutoff, seed, partial(_boolean_ranges, d, gamma, law), direction)


def sample_zero_cell_ranges(
    d: int,
    gamma: float,
    n: int,
    cutoff: float,
    seed: int,
    direction: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """n independent visibility ranges through the hyperplane process."""
    return _single_ranges(d, n, cutoff, seed, partial(_hyperplane_ranges, d, gamma), direction)


# ---------------------------------------------------------------------------
# Visibility ranges against materialized window samples
# ---------------------------------------------------------------------------


def _model_polar(model: BooleanModelSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g_dist = np.arccosh(np.maximum(1.0, model.centers[:, 0]))
    sinh_d = np.sinh(g_dist)
    g_dir = model.centers[:, 1:] / np.where(sinh_d > 0, sinh_d, 1.0)[:, None]
    return g_dist, g_dir, model.radii


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
        return plane_hits_from_base(dirs, model.normals).min(axis=1)
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
    value = min(cutoff, float(_window_ranges(model, _spatial_direction(model.d, u))[0]))
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
    ranges = _window_ranges(model, procsim.unit_vectors(d, rng, n_rays))
    return omega(d) * float(np.mean(sinh_integral(d, np.minimum(ranges, truncate_at))))


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
    rep_vals = np.empty(n_reps)
    n_censored = 0
    for i, rep_ranges in enumerate(_replications(d, n_reps, n_rays, cutoff, seed, ranges)):
        n_censored += int(np.sum(rep_ranges >= cutoff - 1e-12))
        rep_vals[i] = omega(d) * float(np.mean(sinh_integral(d, np.minimum(rep_ranges, cap))))
    estimate, stderr = float(np.mean(rep_vals)), float(np.std(rep_vals, ddof=1) / math.sqrt(n_reps))
    censored_fraction, runtime_ms = n_censored / (n_reps * n_rays), (time.perf_counter() - t0) * 1e3
    return make_record(
        quantity, d, gamma, law, estimate, stderr, n_reps, n_rays, censored_fraction, closed, seed, runtime_ms
    )


def estimate_segment_crossings(d: int, gamma: float, length: float, n_reps: int, seed: int) -> EstimateRecord:
    """Mean number of hyperplanes crossing a fixed segment from the base point.

    The invariant-measure (Crofton) value is gamma * 2 kappa_{d-1}/(d kappa_d)
    per unit length. Planes farther than the segment length cannot cross it,
    so sampling within that radius is exact.
    """
    t0 = time.perf_counter()
    direction = np.zeros(d)
    direction[0] = 1.0
    counts = np.empty(n_reps)
    for i in range(n_reps):
        rng = stream(seed, i)
        sample = procsim.sample_hyperplanes(d, gamma, length, rng)
        if sample.n_planes:
            hits = plane_hits_from_base(direction[None, :], sample.normals)
            counts[i] = np.sum(hits[0] <= length)
        else:
            counts[i] = 0.0
    closed = gamma * closedform.zero_cell_rate(d, 1.0) * length
    return make_record(
        "segment_crossings",
        d,
        gamma,
        None,
        float(np.mean(counts)),
        float(np.std(counts, ddof=1) / math.sqrt(n_reps)),
        n_reps,
        1,
        0.0,
        closed,
        seed,
        (time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# Depth-stratified truncated estimator (near-critical regime)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratifiedEstimate:
    """Truncated visible-volume estimates from depth-band survival products."""

    radii: tuple[float, ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    closed_forms: tuple[float, ...]
    band_width: float
    band_survival: np.ndarray  # pooled survival fraction per band
    seed: int
    runtime_ms: float


def estimate_visible_volume_stratified(
    d: int,
    gamma: float,
    law: GrainLaw,
    radii: tuple[float, ...],
    band_width: float = 0.5,
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
    t0 = time.perf_counter()
    r_top = max(radii)
    n_bands = round(r_top / band_width)
    if abs(n_bands * band_width - r_top) > 1e-9 or any(
        abs(round(r / band_width) * band_width - r) > 1e-9 for r in radii
    ):
        raise ValueError("each radius must be an integer multiple of band_width")
    edges = band_width * np.arange(n_bands + 1)
    lower = sinh_integral(d, edges[:-1])
    batch_vals = np.empty((n_batches, len(radii)))
    survive_tally = np.zeros(n_bands)
    for b in range(n_batches):
        p_hat = np.empty(n_bands)
        c_hat = np.empty(n_bands)
        for k in range(n_bands):
            rng = stream(seed, b, k)
            first = procsim.band_first_touches(d, gamma, law, edges[k], edges[k + 1], sims_per_band, rng)
            p_hat[k] = float(np.mean(np.isinf(first)))
            upper = sinh_integral(d, np.minimum(first, edges[k + 1]))
            c_hat[k] = float(np.mean(upper - lower[k]))
        survive_tally += p_hat
        s_hat = np.concatenate([[1.0], np.cumprod(p_hat)[:-1]])
        contrib = omega(d) * np.cumsum(s_hat * c_hat)
        for j, r in enumerate(radii):
            batch_vals[b, j] = contrib[round(r / band_width) - 1]
    estimates = batch_vals.mean(axis=0)
    stderrs = batch_vals.std(axis=0, ddof=1) / math.sqrt(n_batches)
    closed = tuple(closedform.truncated_visible_volume(d, gamma, law, r) for r in radii)
    return StratifiedEstimate(
        radii=tuple(radii),
        estimates=tuple(float(v) for v in estimates),
        stderrs=tuple(float(v) for v in stderrs),
        closed_forms=closed,
        band_width=band_width,
        band_survival=survive_tally / n_batches,
        seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
    )
