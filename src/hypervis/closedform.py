"""Constants and closed forms for hyperbolic Boolean models and hyperplane processes.

Everything here is deterministic: unit-ball constants, the Steiner coefficient
functions ell_{d,j}, ball volumes and surfaces, grain-law moments, the
exponential-rate integral and its gamma-function closed form, mean visible
volume with its finiteness threshold, truncated variants and their growth
asymptotics, intersection density, and the zero-cell mean volume.

Closed forms are primary; a composite Gauss-Legendre rule of fixed order (see
_quad) is kept alongside as the independent cross-check route, exposed through
the ``*_quadrature`` twins and the identity checks at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Relative guard for the finite/infinite dichotomy at a = d-1. Rates within
# 1e-12 of the threshold round-trip through float arithmetic (e.g. gamma
# computed as threshold/v_star times v_star) and are treated as critical.
_THRESHOLD_GUARD = 1e-12


def kappa(d: int) -> float:
    """Volume of the d-dimensional Euclidean unit ball, pi^{d/2}/Gamma(1+d/2), for 0 <= d <= 341;
    beyond, Gamma(1+d/2) overflows a double."""
    if d < 0:
        raise ValueError("dimension must be >= 0")
    try:
        gamma = math.gamma(1.0 + d / 2.0)
    except OverflowError:
        raise ValueError(
            f"dimension {d} is too large: the largest supported is d = 341, beyond which Gamma(1 + d/2) overflows"
        ) from None
    return math.pi ** (d / 2.0) / gamma


def omega(d: int) -> float:
    """Surface area of the d-dimensional Euclidean unit ball, d*kappa(d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return d * kappa(d)


@dataclass(frozen=True)
class Constants:
    """Unit-ball constants for one dimension."""

    d: int
    kappa_d: float
    omega_d: float

    @classmethod
    def for_dim(cls, d: int) -> "Constants":
        if d < 2:
            raise ValueError("dimension must be >= 2")
        return cls(d=d, kappa_d=kappa(d), omega_d=omega(d))


# ---------------------------------------------------------------------------
# Grain laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedRadius:
    """All grains are balls of one fixed radius."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("fixed grain radius must be > 0")

    @property
    def max_radius(self) -> float:
        return self.radius

    def sample_radii(self, rngs, counts) -> np.ndarray:
        """Radii of counts[i] grains from each generator rngs[i], concatenated: no generator draws."""
        return np.full(int(np.sum(counts)), self.radius)


@dataclass(frozen=True)
class UniformRadius:
    """Grain radii uniform on [lo, hi]; lo = 0 is allowed (zero chance weight)."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < 0 or not self.hi > self.lo:
            raise ValueError("uniform radius law needs 0 <= lo < hi")

    @property
    def max_radius(self) -> float:
        return self.hi

    def sample_radii(self, rngs, counts) -> np.ndarray:
        """Radii of counts[i] grains from each generator rngs[i], concatenated."""
        # the bits of rng.uniform(lo, hi, n), which computes the same lo + (hi - lo) U at over twice the cost
        return self.lo + (self.hi - self.lo) * np.concatenate([rng.random(c) for rng, c in zip(rngs, counts)])


GrainLaw = FixedRadius | UniformRadius


def parse_grain_law(text: str) -> GrainLaw:
    """Parse 'fixed:R' or 'uniform:A,B'."""
    kind, _, params = text.partition(":")
    try:
        if kind == "fixed":
            return FixedRadius(float(params))
        if kind == "uniform":
            lo, hi = params.split(",")
            return UniformRadius(float(lo), float(hi))
    except ValueError as exc:
        raise ValueError(f"bad grain law {text!r}: {exc}") from exc
    raise ValueError(f"unknown grain law kind {kind!r} (use fixed:R or uniform:A,B)")


def grain_kind_params(law: GrainLaw | None) -> tuple[str, str]:
    """(kind, comma-joined params) for record emission; ('', '') when absent."""
    if law is None:
        return "", ""
    if isinstance(law, FixedRadius):
        return "fixed", f"{law.radius:.12g}"
    return "uniform", f"{law.lo:.12g},{law.hi:.12g}"


# ---------------------------------------------------------------------------
# Quadrature helper
# ---------------------------------------------------------------------------


# Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree <= 39.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_QUAD_RTOL = 1e-13
_QUAD_MAX_PANELS = 2**12


def _quad(f, a: float, b: float):
    """int_a^b f by the composite 20-point Gauss-Legendre rule, for f vectorized over a flat array of nodes. f may
    return shape (..., nodes) for as many integrals at once.

    The rule runs on 1, 2, 4, ... equal panels until two successive estimates agree to _QUAD_RTOL relative in
    every integral, and returns the finer one; ValueError if they still differ at _QUAD_MAX_PANELS panels, and
    OverflowError, as math raises it, where an estimate is not a finite double.
    """
    previous, panels = None, 1
    while panels <= _QUAD_MAX_PANELS:
        half = 0.5 * (b - a) / panels
        centers = a + half * (2.0 * np.arange(panels) + 1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by the estimate
            values = f((centers[:, None] + half * _GL_NODES).ravel())
        estimate = half * (values.reshape(*values.shape[:-1], panels, _GL_NODES.size) @ _GL_WEIGHTS).sum(axis=-1)
        if not np.all(np.isfinite(estimate)):
            raise OverflowError(f"the integral on [{a}, {b}] overflows double precision")
        if previous is not None and np.all(np.abs(estimate - previous) <= _QUAD_RTOL * np.abs(estimate)):
            return estimate
        previous, panels = estimate, 2 * panels
    raise ValueError(f"quadrature on [{a}, {b}] did not reach {_QUAD_RTOL} relative in {_QUAD_MAX_PANELS} panels")


def _finite_radius(name: str, value) -> None:
    """Refuse a radius argument that is not finite and >= 0, by its name."""
    if not np.all(np.isfinite(value) & (np.asarray(value) >= 0)):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


# ---------------------------------------------------------------------------
# Steiner coefficient functions and ball measures
# ---------------------------------------------------------------------------


def ell(d: int, j: int, r):
    """Steiner coefficient function omega_{d-j} * int_0^r cosh^j(t) sinh^{d-1-j}(t) dt, vectorized over r >= 0."""
    if not 0 <= j <= d - 1:
        raise ValueError(f"need 0 <= j <= d-1, got j={j}, d={d}")
    _finite_radius("r", r)
    r = np.asarray(r, dtype=float)
    t = r[..., None]  # int_0^r g = r int_0^1 g(r u) du, all r at once
    out = omega(d - j) * r * _quad(lambda u: np.cosh(t * u) ** j * np.sinh(t * u) ** (d - 1 - j), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def ell_deriv(d: int, j: int, r):
    """Derivative omega_{d-j} cosh^j(r) sinh^{d-1-j}(r), vectorized over r."""
    if not 0 <= j <= d - 1:
        raise ValueError(f"need 0 <= j <= d-1, got j={j}, d={d}")
    return omega(d - j) * np.cosh(r) ** j * np.sinh(r) ** (d - 1 - j)


_TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def _sinh_power_series(n: int) -> tuple[float, np.ndarray]:
    """Where the power series of int_0^t sinh^n takes over from the reduction formula, and its
    coefficients b_k of int_0^t sinh^n = t^{n+1} sum_k b_k t^{2k}, as many as doubles need below that.

    Each step of the sinh reduction formula scales the relative error by about
    sinh^{-2} t, so it is stable from t = asinh 1 on, and below that its n/2
    steps lose about sinh^{-n} t. The series takes over below asinh 1, or for
    n <= 9 below 0.5, where the recursion loses up to 2e-13 (at n = 9).
    """
    below = 0.5 if n <= 9 else math.asinh(1.0)
    k = np.arange(24 + n // 2)  # more than doubles need below asinh 1 (142 at n = 340)
    inverse_factorials = [1.0 / math.factorial(2 * j + 1) if j < 85 else 0.0 for j in k]  # 171! overflows a double
    coef = np.ones(1)
    for _ in range(n):
        coef = np.convolve(coef, inverse_factorials)[: len(k)]
    coef = coef / (n + 1 + 2 * k)
    return below, coef[coef * below ** (2 * k) > 1e-17 * coef[0]]


def power_integral(n: int, t, sign: int = -1):
    """int_0^t sinh^n (sign -1) or cosh^n (sign +1), vectorized over t >= 0; inf past the doubles.

    The radial profile of both obstacle processes: grain centers within
    distance t have volume omega_d * power_integral(d-1, t, -1), hyperplanes
    within distance t have measure 2 * power_integral(d-1, t, +1). Computed by
    the reduction formula n I_n = f^{n-1} g + sign (n-1) I_{n-2}, with
    (f, g) = (sinh, cosh) or (cosh, sinh), from I_0 = t and I_1 = 2 sinh^2(t/2)
    or sinh t; a power series replaces the cancelling sinh recursion near 0
    (below t = 0.5 for n <= 9, asinh 1 beyond: see _sinh_power_series).
    """
    t = np.asarray(t, dtype=float)
    if n == 0:
        return t
    with np.errstate(over="ignore", invalid="ignore"):  # the terms overflow below the integral, redone halved
        if n == 1:
            return 2.0 * np.sinh(t / 2.0) ** 2 if sign < 0 else np.sinh(t)  # quietly inf past the doubles, too
        out = _profile(n, t.ravel(), sign)[0]
        big = ~np.isfinite(out)
        if big.any():  # halved terms that overflow too (nan: inf - inf) put the integral past 2^n / n * 1.8e308
            t_big = t.ravel()[big]
            halved = _profile(n, t_big, sign, 0.5)[0]
            out[big] = np.ldexp(np.where(np.isnan(halved) & ~np.isnan(t_big), np.inf, halved), n)
    return out.reshape(t.shape)


def _profile(n: int, t: np.ndarray, sign: int, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """power_integral(n, t, sign) for n >= 2 and flat t, and f = sinh t (sign -1) or cosh t (sign +1):
    f^n is the profile's slope.

    With scale 0.5, f and g are halved, and the integral n times: 2^{-n} power_integral stays a double
    where the formula's f^{n-1} g term overflows (from about 1.8e308 / n) but the integral does not. A power
    of two rounds nothing, so it is the unhalved value times 2^{-n} wherever both are normal doubles.
    """
    f, g = (np.sinh(t), np.cosh(t)) if sign < 0 else (np.cosh(t), np.sinh(t))
    if n % 2 == 0:
        out = t
    else:
        out = 2.0 * np.sinh(t / 2.0) ** 2 if sign < 0 else g
    if scale != 1.0:
        f, g, out = f * scale, g * scale, out * scale ** (n % 2)
    f2 = f * f
    term = g * (f if n % 2 == 0 else f2)  # f^{k-1} g
    for k in range(2 + n % 2, n + 1, 2):
        out = (term + sign * (k - 1) * scale * scale * out) / k
        if k < n:
            term = term * f2
    if sign < 0:
        below, coef = _sinh_power_series(n)
        small = t < below
        if small.any():
            ts = t[small]
            x, series = ts * ts, 0.0
            for b in coef[::-1]:  # Horner in t^2
                series = series * x + b
            out[small] = ts ** (n + 1) * series * scale**n
    return out, f


@lru_cache(maxsize=2**15)
def power_integral_at(n: int, t: float, sign: int = -1) -> float:
    """power_integral at one radius, as a float. Cached: every replication of a radial sweep
    needs each block bound's value for the block's Poisson mean and draws."""
    return float(power_integral(n, t, sign))


# Points of _start_table: read off linearly, it starts Newton within about 1e-7 of the root (3e-6 for
# cosh near t = 0.5), close enough for two or three steps to converge.
_START_POINTS = 8192


@lru_cache(maxsize=None)
def _start_table(n: int, sign: int) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Newton's starts for power_integral(n, t, sign) = y, for the y of 1e-3 <= t <= 20 that are
    normal doubles: log sinh t at _START_POINTS values of log y evenly spaced over that range, as
    (first log y, points per unit of log y, log sinh t, rise to the next point).

    Like log y, log sinh t goes as log t near 0 (to O(t^2)) and linearly in t for large t (to O(e^{-2t})),
    so it is nearly linear in log y, and beyond the table's ends it carries on along the end segments.
    Built on first use, from the profile on a finer grid of t.
    """
    t = np.geomspace(1e-3, 20.0, 2 * _START_POINTS)
    with np.errstate(all="ignore"):  # for large n the profile leaves the normal doubles within 1e-3..20
        y = _profile(n, t, sign)[0]
    keep = (y >= _TINY) & (y < np.inf)
    log_y, t = np.log(y[keep]), t[keep]
    log_sinh = np.interp(np.linspace(log_y[0], log_y[-1], _START_POINTS), log_y, np.log(np.sinh(t)))
    return log_y[0], (_START_POINTS - 1) / (log_y[-1] - log_y[0]), log_sinh, np.diff(log_sinh)


def _newton_start(n: int, y: np.ndarray, sign: int, halvings: int = 0) -> np.ndarray:
    """A start for Newton on 2^{-halvings n} power_integral(n, t, sign) = y: read off _start_table, along its
    first or last segment beyond its ends. y = 0 starts at 0, and y = nan at nan."""
    log_lo, per, log_sinh, rise = _start_table(n, sign)
    with np.errstate(divide="ignore"):  # log 0 = -inf, read along the first segment to sinh t = 0
        pos = (np.log(y) + halvings * n * math.log(2.0) - log_lo) * per  # y is 2^{-halvings n} the integral
    i = np.fmin(np.fmax(pos, 0), len(rise) - 1).astype(np.intp)  # fmax reads nan as 0
    return np.arcsinh(np.exp(log_sinh[i] + (pos - i) * rise[i]))


def power_integral_inverse(n: int, y, sign: int = -1, halvings: int = 0):
    """The t >= 0 with power_integral(n, t, sign) = y 2^{halvings n}, for n >= 1, vectorized over y >= 0;
    halvings > 0 (see _profile) reaches integrals beyond the doubles, for n >= 2.

    Closed forms for n = 1. Otherwise Newton's method on the convex profile, which from any start steps to or
    above the root and then decreases monotonically to it, started from _newton_start's one rule, the start table
    read linearly in log y (along its end segments beyond its ends). Each root is iterated until its own step is
    below 1e-13 of it, so it is bit for bit the root of a call with that y alone; y = nan returns nan, y = inf inf.
    """
    y = np.asarray(y, dtype=float)
    if n == 1 and sign > 0:
        return np.arcsinh(y)
    if n == 1:  # y / 2 rounds where y is subnormal; there sqrt(2^107 y) / 2^54 is sqrt(y / 2) without rounding
        low = np.ldexp(np.sqrt(np.ldexp(np.minimum(y, _TINY), 107)), -54)
        return 2.0 * np.arcsinh(np.where(y < _TINY, low, np.sqrt(y / 2.0)))
    shape, y = y.shape, y.ravel()
    out = _newton_start(n, y, sign, halvings)
    active, scale = np.flatnonzero(y < np.inf), 0.5**halvings  # where in out the roots still iterated go
    t, y = out[active], y[active]  # nan and inf start at their roots
    for _ in range(50):
        with np.errstate(over="ignore", invalid="ignore"):  # where the profile or its slope overflows, halve it
            value, f = _profile(n, t, sign, scale)
            slope = f**n
            step = (value - y) / np.maximum(slope, _TINY)  # the slope is tiny only where y and t are 0
            big = ~(np.isfinite(value) & np.isfinite(slope))
            if big.any():
                value, f = _profile(n, t[big], sign, scale / 2)
                step[big] = (value - np.ldexp(y[big], -n)) / np.maximum(f**n, _TINY)
        t = t - step
        out[active] = t
        going = np.abs(step) > 1e-13 * t
        if not going.any():
            break
        active, t, y = active[going], t[going], y[going]
    return out.reshape(shape)


def sinh_integral(d: int, r) -> np.ndarray | float:
    """int_0^r sinh^{d-1}(t) dt, vectorized: power_integral(d-1, r, -1).

    This is the radial volume profile: ball_volume(d, r) = omega_d * sinh_integral(d, r).
    """
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ValueError("radius must be >= 0")
    out = power_integral(d - 1, r, -1)
    return float(out) if out.ndim == 0 else out


def ball_volume(d: int, r) -> np.ndarray | float:
    """Volume of a hyperbolic ball of radius r: omega_d * int_0^r sinh^{d-1}, vectorized.

    Where the integral passes the doubles but the volume need not (omega_341 is 2e-221), the profile is halved
    k times, as in radius_at_volume, with k the least for which omega_d 2^{k(d-1)} >= 2^{d-1}: then
    2^{-k(d-1)} int_0^r sinh^{d-1} and the terms of its reduction formula are doubles wherever the volume is.
    """
    r = np.asarray(r, dtype=float)
    out = np.asarray(omega(d) * sinh_integral(d, r))
    big = np.isinf(out) & np.isfinite(r)  # the integral passes the doubles
    if d > 2 and big.any():  # omega_2 > 1: in d = 2 the volume overflows with the integral
        k = math.ceil(1.0 - math.log2(omega(d)) / (d - 1))
        with np.errstate(over="ignore", invalid="ignore"):  # as in power_integral; fmin reads nan (inf - inf) as inf
            out[big] = math.ldexp(omega(d), k * (d - 1)) * np.fmin(_profile(d - 1, r[big], -1, 0.5**k)[0], np.inf)
    return float(out) if out.ndim == 0 else out


def ball_surface(d: int, r: float) -> float:
    """Boundary content of a hyperbolic ball: omega_d sinh^{d-1}(r)."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    return omega(d) * math.sinh(r) ** (d - 1)


def mc_ball_volume(d: int, r: float, n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo ball volume through the Poincare model: (estimate, stderr).

    Uniform Euclidean samples in the disk image of radius tanh(r/2), weighted
    by the conformal volume factor (2/(1-|z|^2))^d. Independent of the
    sinh-antiderivative route, so it serves as its oracle.
    """
    rho = math.tanh(r / 2.0)
    radii = rho * rng.random(n) ** (1.0 / d)
    weights = (2.0 / (1.0 - radii**2)) ** d
    euclidean = kappa(d) * rho**d
    return (
        euclidean * float(np.mean(weights)),
        euclidean * float(np.std(weights, ddof=1) / math.sqrt(n)),
    )


def radius_at_volume(d: int, v: float) -> float:
    """Inverse of ball_volume in the radius. Where v / omega_d passes the doubles (omega_341 is 2e-221), the
    profile is halved k times, so that v 2^{-k(d-1)} / omega_d is a double."""
    if v <= 0:
        return 0.0
    y, k = float(v) / omega(d), 0
    if math.isinf(y) and math.isfinite(v):
        k = math.ceil((math.log2(v) - math.log2(omega(d)) - 1000.0) / (d - 1))
        y = v / math.ldexp(omega(d), k * (d - 1))
    return float(power_integral_inverse(d - 1, y, -1, k))


# ---------------------------------------------------------------------------
# Grain moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrainMoments:
    """Mean boundary content and volume of the typical grain.

    v_dm1_star = (kappa_{d-1}/(d kappa_d)) * v_dm1 is the exponential rate per
    unit intensity: the visibility range is Exp(gamma * v_dm1_star).
    """

    d: int
    v_dm1: float
    v_dm1_star: float
    mean_volume: float


def star_factor(d: int) -> float:
    """kappa_{d-1}/(d kappa_d), the segment-measure constant."""
    return kappa(d - 1) / (d * kappa(d))


def grain_moments(d: int, law: GrainLaw) -> GrainMoments:
    """Moments of the grain law: mean surface, its starred version, mean volume."""
    if isinstance(law, FixedRadius):
        v = ball_surface(d, law.radius)
        mv = float(ball_volume(d, law.radius))
    else:
        width = law.hi - law.lo
        v = (float(ball_volume(d, law.hi)) - float(ball_volume(d, law.lo))) / width  # the surface integrates to V
        mv = float(_quad(lambda r: ball_volume(d, r), law.lo, law.hi)) / width
    return GrainMoments(d=d, v_dm1=v, v_dm1_star=star_factor(d) * v, mean_volume=mv)


# ---------------------------------------------------------------------------
# Exponential-rate integral, visible volume, thresholds
# ---------------------------------------------------------------------------


def sinh_exp_integral(d: int, a: float) -> float:
    """int_0^inf sinh^{d-1}(s) e^{-as} ds; finite iff a > d-1, else math.inf.

    Finite value ((d-1)!/2^d) Gamma(x) / Gamma(x + d) with x = (a-d+1)/2. The
    two arguments differ by the integer d, so this is the exact product
    2^{-d}/x prod_{k=1}^{d-1} k/(x+k), whose factors are all <= 1: no partial
    product overflows, and none underflows unless the value itself does.
    """
    if a - (d - 1) <= _THRESHOLD_GUARD * max(1.0, abs(a)):
        return math.inf
    x = (a - d + 1) / 2.0
    return math.prod(k / (x + k) for k in range(1, d)) / (2.0**d * x)


def sinh_exp_integral_quadrature(d: int, a: float) -> float:
    """Quadrature cross-check of sinh_exp_integral on the finite regime.

    Truncated where the integrand falls below 1e-16 of its peak; the decay
    rate is a - d + 1.
    """
    if math.isinf(sinh_exp_integral(d, a)):
        raise ValueError("quadrature cross-check needs a > d-1")
    upper = 40.0 / (a - d + 1) + 40.0 / a
    return float(_quad(lambda s: np.sinh(s) ** (d - 1) * np.exp(-a * s), 0.0, upper))


def range_rate(d: int, gamma: float, law: GrainLaw | None) -> float:
    """Rate of the exponential visibility ranges: gamma v* through grains of law, the zero-cell rate if law is None."""
    return zero_cell_rate(d, gamma) if law is None else gamma * grain_moments(d, law).v_dm1_star


def mean_visible_volume(d: int, gamma: float, law: GrainLaw) -> float:
    """Mean visible volume of the conditioned Boolean model; math.inf at or below threshold."""
    if gamma <= 0:
        raise ValueError("intensity must be > 0")
    return omega(d) * sinh_exp_integral(d, range_rate(d, gamma, law))


def truncated_visible_volume(d: int, gamma: float, law: GrainLaw | None, r: float) -> float:
    """Mean visible volume within distance r: omega_d int_0^r e^{-as} sinh^{d-1}(s) ds, a = range_rate
    (the zero cell's for law None). The integrand is divided by its largest value on [0, r], at
    tanh s = (d-1)/a or r, so that it stays a double at every d.

    Beyond twice that peak the integrand's log falls at a rate of at least (a^2 - (d-1)^2) / (2a), so 40 / rate
    further on it is below e^{-40} of its peak: the rule stops there, at the bump's own scale, if that is before r.
    """
    _finite_radius("r", r)
    if r == 0:
        return 0.0
    a = range_rate(d, gamma, law)
    peak = min(r, math.atanh((d - 1) / a)) if a > d - 1 else r
    top = math.exp(-a * peak) * math.sinh(peak) ** (d - 1)
    reach = 2.0 * peak + 80.0 * a / (a * a - (d - 1) ** 2) if a > d - 1 else r
    sinh_peak, rate = math.sinh(peak), a / (d - 1)

    def scaled(s):  # e^{-as} sinh^{d-1}(s) / top, as a power of a ratio at most 1
        return (np.sinh(s) / sinh_peak * np.exp(-rate * (s - peak))) ** (d - 1)

    return omega(d) * top * float(_quad(scaled, 0.0, min(r, reach)))


def truncation_asymptote(d: int, gamma: float, law: GrainLaw, r: float) -> tuple[str, float]:
    """Growth regime and comparator for the truncated visible volume at radius r.

    subcritical (a < d-1): omega_d/(2^{d-1}(d-1-a)) e^{(d-1-a)r} for the value;
    critical (a = d-1): omega_d/2^{d-1} r for the value;
    supercritical (a > d-1): omega_d/(2^{d-1}(a-d+1)) e^{-(a-d+1)r} for the tail.
    """
    a = range_rate(d, gamma, law)
    gap = a - (d - 1)
    scale = omega(d) / 2.0 ** (d - 1)
    if abs(gap) <= _THRESHOLD_GUARD * max(1.0, abs(a)):
        return "critical", scale * r
    if gap < 0:
        return "subcritical", scale / (-gap) * math.exp(-gap * r)
    return "supercritical", scale / gap * math.exp(-gap * r)


def critical_scaling(d: int, delta: float) -> float:
    """Leading divergence omega_d/(2^{d-1} delta) of the mean visible volume at rate d-1+delta."""
    if delta <= 0:
        raise ValueError("delta must be > 0")
    return omega(d) / (2.0 ** (d - 1) * delta)


def intersection_density(d: int, gamma: float, law: GrainLaw) -> float:
    """Expected boundary-intersection points per unit volume: kappa_d (v* gamma)^d."""
    if gamma < 0:
        raise ValueError("intensity must be >= 0")
    if gamma == 0:
        return 0.0
    return kappa(d) * (grain_moments(d, law).v_dm1_star * gamma) ** d


def visibility_threshold(d: int, radius: float) -> float:
    """Critical intensity (d-1)/(kappa_{d-1} sinh^{d-1}(radius)) for fixed-radius balls."""
    if radius <= 0:
        raise ValueError("grain radius must be > 0")
    return (d - 1) / (kappa(d - 1) * math.sinh(radius) ** (d - 1))


def zero_cell_rate(d: int, gamma: float) -> float:
    """Exponential rate 2 kappa_{d-1} gamma / (d kappa_d) of hyperplane visibility ranges."""
    return 2.0 * star_factor(d) * gamma


def zero_cell_mean_volume(d: int, gamma: float) -> float:
    """Mean zero-cell volume of the hyperplane tessellation; math.inf iff rate <= d-1."""
    if gamma <= 0:
        raise ValueError("intensity must be > 0")
    return omega(d) * sinh_exp_integral(d, zero_cell_rate(d, gamma))


# ---------------------------------------------------------------------------
# Identity checks (quadrature oracles)
# ---------------------------------------------------------------------------


def verify_ell_identity(d: int, k: int, j: int, r: float) -> float:
    """Residual of int_0^r ell_{d,k}(acosh(cosh r / cosh s)) ell'_{k,j}(s) ds = ell_{d,j}(r).

    acosh(cosh r / cosh s) goes as sqrt(r - s) at s = r, so the integrand has a square-root endpoint there for
    every k; the substitution s = r (1 - v^2) makes it smooth in v. All inner ell values of one estimate are
    taken in one vectorized call.
    """
    if not 0 <= j < k <= d - 1:
        raise ValueError(f"need 0 <= j < k <= d-1, got d={d}, k={k}, j={j}")
    _finite_radius("r", r)
    if r == 0:
        return 0.0
    cosh_r = math.cosh(r)

    def integrand(v):
        s = r * (1.0 - v * v)
        x = np.arccosh(np.maximum(1.0, cosh_r / np.cosh(s)))
        return ell(d, k, x) * ell_deriv(k, j, s) * 2.0 * r * v

    return abs(float(_quad(integrand, 0.0, 1.0)) - ell(d, j, r))


def ell_identity_residuals() -> dict[str, float]:
    """verify_ell_identity on the (d, k, j) x r grid that the acceptance suite checks, keyed by its arguments."""
    return {
        f"ell_identity(d={d},k={k},j={j},r={r})": verify_ell_identity(d, k, j, r)
        for d, k, j in ((3, 1, 0), (3, 2, 0), (3, 2, 1), (4, 2, 1), (4, 3, 1))
        for r in (0.3, 1.0, 2.0)
    }


def rate_integral_residuals() -> dict[str, float]:
    """Relative error of sinh_exp_integral's gamma form against quadrature on the acceptance grid."""
    residuals = {}
    for d, a in ((2, 1.5), (2, 2.0), (3, 4.0), (4, 6.0)):
        gamma_form = sinh_exp_integral(d, a)
        residuals[f"sinh_exp_integral(d={d},a={a})"] = abs(gamma_form - sinh_exp_integral_quadrature(d, a)) / gamma_form
    return residuals


def steiner_ball_coefficients(d: int, radius: float) -> np.ndarray:
    """Steiner coefficients of a ball fitted from the parallel-volume growth.

    Solves vol(B(radius + r_i)) - vol(B(radius)) = sum_j c_j ell_{d,j}(r_i)
    at the d radii r_i = 0.3, 0.6, ..., 0.3 d; returns (c_0, ..., c_{d-1}).
    For d = 2 the exact answer is (cosh radius, pi sinh radius).
    """
    fit_radii = [0.3 * (i + 1) for i in range(d)]
    m = np.column_stack([ell(d, j, fit_radii) for j in range(d)])
    rhs = np.array([float(ball_volume(d, radius + ri)) - float(ball_volume(d, radius)) for ri in fit_radii])
    return np.linalg.solve(m, rhs)


def steiner_ball_check(d: int, radius: float, r: float) -> float:
    """Prediction residual of the fitted Steiner expansion at a fresh parallel radius r."""
    _finite_radius("radius", radius)
    _finite_radius("r", r)
    if r == 0:
        return 0.0
    coeffs = steiner_ball_coefficients(d, radius)
    predicted = float(ball_volume(d, radius)) + sum(coeffs[j] * ell(d, j, r) for j in range(d))
    return abs(predicted - float(ball_volume(d, radius + r)))
