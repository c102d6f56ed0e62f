"""Constants and closed forms for hyperbolic Boolean models and hyperplane processes.

Everything here is deterministic: unit-ball constants, the Steiner coefficient
functions ell_{d,j}, ball volumes and surfaces, grain-law moments, the
exponential-rate integral and its gamma-function closed form, mean visible
volume with its finiteness threshold, truncated variants and their growth
asymptotics, intersection density, and the zero-cell mean volume.

Closed forms are primary; adaptive quadrature (scipy's Gauss-Kronrod) is kept
alongside as the independent cross-check route, exposed through the
``*_quadrature`` twins and the identity checks at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

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

    def sample_radii(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.radius)


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

    def sample_radii(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


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


def _quad(f, a: float, b: float, **kw) -> float:
    val, _ = quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200, **kw)
    return val


# ---------------------------------------------------------------------------
# Steiner coefficient functions and ball measures
# ---------------------------------------------------------------------------


def ell(d: int, j: int, r: float) -> float:
    """Steiner coefficient function omega_{d-j} * int_0^r cosh^j(t) sinh^{d-1-j}(t) dt."""
    if not 0 <= j <= d - 1:
        raise ValueError(f"need 0 <= j <= d-1, got j={j}, d={d}")
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return 0.0
    return omega(d - j) * _quad(lambda t: math.cosh(t) ** j * math.sinh(t) ** (d - 1 - j), 0.0, r)


def ell_deriv(d: int, j: int, r: float) -> float:
    """Derivative omega_{d-j} cosh^j(r) sinh^{d-1-j}(r)."""
    if not 0 <= j <= d - 1:
        raise ValueError(f"need 0 <= j <= d-1, got j={j}, d={d}")
    return omega(d - j) * math.cosh(r) ** j * math.sinh(r) ** (d - 1 - j)


# Below this argument the sinh reduction formula cancels; its power series takes over.
_SERIES_BELOW = 0.5
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def _sinh_power_series(n: int) -> np.ndarray:
    """Coefficients b_k of int_0^t sinh^n = t^{n+1} sum_k b_k t^{2k}, as many as doubles need below _SERIES_BELOW."""
    k = np.arange(24)
    coef = np.ones(1)
    for _ in range(n):
        coef = np.convolve(coef, 1.0 / np.array([math.factorial(2 * j + 1) for j in k], dtype=float))[: len(k)]
    coef = coef / (n + 1 + 2 * k)
    return coef[coef * _SERIES_BELOW ** (2 * k) > 1e-17 * coef[0]]


def power_integral(n: int, t, sign: int = -1):
    """int_0^t sinh^n (sign -1) or cosh^n (sign +1), vectorized over t >= 0.

    The radial profile of both obstacle processes: grain centers within
    distance t have volume omega_d * power_integral(d-1, t, -1), hyperplanes
    within distance t have measure 2 * power_integral(d-1, t, +1). Computed by
    the reduction formula n I_n = f^{n-1} g + sign (n-1) I_{n-2}, with
    (f, g) = (sinh, cosh) or (cosh, sinh), from I_0 = t and I_1 = 2 sinh^2(t/2)
    or sinh t; a power series replaces the cancelling sinh recursion near 0.
    """
    t = np.asarray(t, dtype=float)
    if n % 2 == 0:
        out = t
    else:
        out = 2.0 * np.sinh(t / 2.0) ** 2 if sign < 0 else np.sinh(t)
    if n < 2:
        return out
    f, g = (np.sinh(t), np.cosh(t)) if sign < 0 else (np.cosh(t), np.sinh(t))
    f2 = f * f
    term = g * (f if n % 2 == 0 else f2)  # f^{k-1} g
    for k in range(2 + n % 2, n + 1, 2):
        out = (term + sign * (k - 1) * out) / k
        term = term * f2
    if sign < 0:
        small = t < _SERIES_BELOW
        if np.any(small):
            x, series = t * t, 0.0
            for b in _sinh_power_series(n)[::-1]:  # Horner in t^2
                series = series * x + b
            out = np.where(small, t ** (n + 1) * series, out)
    return out


@lru_cache(maxsize=2**15)
def power_integral_at(n: int, t: float, sign: int = -1) -> float:
    """power_integral at one radius, as a float. Cached: every replication of a radial sweep
    needs each block bound's value for the block's Poisson mean and draws."""
    return float(power_integral(n, t, sign))


def power_integral_inverse(n: int, y, sign: int = -1, sizes=None):
    """The t >= 0 with power_integral(n, t, sign) = y, for n >= 1, vectorized over y >= 0.

    Closed forms for n = 1. Otherwise Newton's method on the convex profile,
    which decreases monotonically to the root from any start above it, started
    from the bounds asinh((n y)^{1/n}) <= t <= ((n+1) y)^{1/(n+1)} (sinh; the
    upper one where it is below 1, else the lower one, whose first step lands
    above the root) or t <= min(y, acosh((1 + n y)^{1/n})) (cosh).

    Newton stops once every root has converged, so the last bits of a root
    depend on the others in the call. With sizes, y is the concatenation of
    groups of these lengths, and each group stops on its own: its roots are
    bit for bit those of a call with that group alone.
    """
    y = np.asarray(y, dtype=float)
    if n == 1:
        return 2.0 * np.arcsinh(np.sqrt(y / 2.0)) if sign < 0 else np.arcsinh(y)
    shape, y = y.shape, y.ravel()
    if sign < 0:
        upper = ((n + 1) * y) ** (1.0 / (n + 1))
        t = np.where(upper < 1.0, upper, np.arcsinh((n * y) ** (1.0 / n)))
    else:
        t = np.minimum(y, np.arccosh((1.0 + n * y) ** (1.0 / n)))
    sizes = [y.size] if sizes is None else sizes
    group = np.repeat(np.arange(len(sizes)), sizes)
    stopped = np.zeros(y.size, dtype=bool)  # roots of the groups that have converged, held fixed
    for _ in range(50):
        slope = np.maximum((np.sinh(t) if sign < 0 else np.cosh(t)) ** n, _TINY)  # t = 0 only where y = 0
        step = (power_integral(n, t, sign) - y) / slope
        t = np.where(stopped, t, t - step)
        unconverged = ~(stopped | (np.abs(step) <= 1e-13 * t))
        if not unconverged.any():
            break
        stopped |= np.bincount(group[unconverged], minlength=len(sizes))[group] == 0
    return t.reshape(shape)


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
    """Volume of a hyperbolic ball of radius r: omega_d * int_0^r sinh^{d-1}."""
    return omega(d) * sinh_integral(d, r)


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
    radii = rho * rng.uniform(size=n) ** (1.0 / d)
    weights = (2.0 / (1.0 - radii**2)) ** d
    euclidean = kappa(d) * rho**d
    return (
        euclidean * float(np.mean(weights)),
        euclidean * float(np.std(weights, ddof=1) / math.sqrt(n)),
    )


def radius_at_volume(d: int, v: float) -> float:
    """Inverse of ball_volume in the radius."""
    if v <= 0:
        return 0.0
    return float(power_integral_inverse(d - 1, v / omega(d), -1))


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
        v = _quad(lambda r: ball_surface(d, r), law.lo, law.hi) / width
        mv = _quad(lambda r: float(ball_volume(d, r)), law.lo, law.hi) / width
    return GrainMoments(d=d, v_dm1=v, v_dm1_star=star_factor(d) * v, mean_volume=mv)


# ---------------------------------------------------------------------------
# Exponential-rate integral, visible volume, thresholds
# ---------------------------------------------------------------------------


def sinh_exp_integral(d: int, a: float) -> float:
    """int_0^inf sinh^{d-1}(s) e^{-as} ds; finite iff a > d-1, else math.inf.

    Finite value ((d-1)!/2^d) Gamma((a-d+1)/2) / Gamma((a+d+1)/2), evaluated
    through log-gamma to avoid overflow.
    """
    if a - (d - 1) <= _THRESHOLD_GUARD * max(1.0, abs(a)):
        return math.inf
    lg = math.lgamma((a - d + 1) / 2.0) - math.lgamma((a + d + 1) / 2.0)
    if d < 172:  # (d-1)! is a float below d = 172
        return math.factorial(d - 1) / 2.0**d * math.exp(lg)
    return math.exp(math.lgamma(d) - d * math.log(2.0) + lg)


def sinh_exp_integral_quadrature(d: int, a: float) -> float:
    """Quadrature cross-check of sinh_exp_integral on the finite regime.

    Truncated where the integrand falls below 1e-16 of its peak; the decay
    rate is a - d + 1.
    """
    if a <= d - 1:
        raise ValueError("quadrature cross-check needs a > d-1")
    upper = 40.0 / (a - d + 1) + 40.0 / a
    return _quad(lambda s: math.sinh(s) ** (d - 1) * math.exp(-a * s), 0.0, upper)


def mean_visible_volume(d: int, gamma: float, law: GrainLaw) -> float:
    """Mean visible volume of the conditioned Boolean model; math.inf at or below threshold."""
    if gamma <= 0:
        raise ValueError("intensity must be > 0")
    a = gamma * grain_moments(d, law).v_dm1_star
    return omega(d) * sinh_exp_integral(d, a)


def truncated_visible_volume(d: int, gamma: float, law: GrainLaw, r: float) -> float:
    """Mean visible volume within distance r: omega_d int_0^r e^{-as} sinh^{d-1}(s) ds."""
    if r < 0:
        raise ValueError("truncation radius must be >= 0")
    if r == 0:
        return 0.0
    a = gamma * grain_moments(d, law).v_dm1_star
    return omega(d) * _quad(lambda s: math.exp(-a * s) * math.sinh(s) ** (d - 1), 0.0, r)


def truncation_asymptote(d: int, gamma: float, law: GrainLaw, r: float) -> tuple[str, float]:
    """Growth regime and comparator for the truncated visible volume at radius r.

    subcritical (a < d-1): omega_d/(2^{d-1}(d-1-a)) e^{(d-1-a)r} for the value;
    critical (a = d-1): omega_d/2^{d-1} r for the value;
    supercritical (a > d-1): omega_d/(2^{d-1}(a-d+1)) e^{-(a-d+1)r} for the tail.
    """
    a = gamma * grain_moments(d, law).v_dm1_star
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

    For k = d-1 the integrand has a square-root endpoint at s = r; the
    substitution sinh s = x sinh r keeps the quadrature well behaved there.
    """
    if not 0 <= j < k <= d - 1:
        raise ValueError(f"need 0 <= j < k <= d-1, got d={d}, k={k}, j={j}")
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return 0.0
    cosh_r = math.cosh(r)

    def integrand(s: float) -> float:
        x = math.acosh(max(1.0, cosh_r / math.cosh(s)))
        return ell(d, k, x) * ell_deriv(k, j, s)

    if k == d - 1:
        sinh_r = math.sinh(r)

        def sub_integrand(x: float) -> float:
            s = math.asinh(x * sinh_r)
            return integrand(s) * sinh_r / math.sqrt(1.0 + (x * sinh_r) ** 2)

        lhs = _quad(sub_integrand, 0.0, 1.0)
    else:
        lhs = _quad(integrand, 0.0, r)
    return abs(lhs - ell(d, j, r))


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


def steiner_ball_coefficients(d: int, radius: float, fit_radii=None) -> np.ndarray:
    """Steiner coefficients of a ball fitted from the parallel-volume growth.

    Solves vol(B(radius + r_i)) - vol(B(radius)) = sum_j c_j ell_{d,j}(r_i)
    at d distinct r_i; returns (c_0, ..., c_{d-1}). For d = 2 the exact
    answer is (cosh radius, pi sinh radius).
    """
    if fit_radii is None:
        fit_radii = [0.3 * (i + 1) for i in range(d)]
    fit_radii = list(fit_radii)
    if len(fit_radii) != d:
        raise ValueError(f"need exactly d={d} fit radii")
    m = np.array([[ell(d, j, ri) for j in range(d)] for ri in fit_radii])
    rhs = np.array([float(ball_volume(d, radius + ri)) - float(ball_volume(d, radius)) for ri in fit_radii])
    return np.linalg.solve(m, rhs)


def steiner_ball_check(d: int, radius: float, r: float, fit_radii=None) -> float:
    """Prediction residual of the fitted Steiner expansion at a fresh parallel radius r."""
    if r == 0:
        return 0.0
    coeffs = steiner_ball_coefficients(d, radius, fit_radii)
    predicted = float(ball_volume(d, radius)) + sum(coeffs[j] * ell(d, j, r) for j in range(d))
    return abs(predicted - float(ball_volume(d, radius + r)))
