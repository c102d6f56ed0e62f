"""The `hypervis estimate` quantity table, experiment configuration and validation, the KS test, result emission."""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import closedform, intersect, procsim, visibility
from .closedform import GrainLaw, grain_moments
from .visibility import EstimateRecord

# Asymptotic 1% Kolmogorov-Smirnov critical coefficient.
KS_COEFF_1PCT = 1.628


class UsageError(ValueError):
    """A configuration violates a precondition; the message names it."""


@dataclass(frozen=True)
class KsResult:
    """One-sample Kolmogorov-Smirnov outcome at the 1% level."""

    statistic: float
    n: int
    critical_1pct: float
    passed: bool


@dataclass(frozen=True)
class FormulaCheckResult:
    """Aggregated residuals of the closed-form identity checks."""

    max_residual: float
    passed: bool
    checks: dict[str, float]


def ks_exponential(samples, rate: float, cutoff: float = math.inf) -> KsResult:
    """Sup distance between the empirical CDF and the Exp(rate) law truncated at cutoff.

    The truncated CDF (1 - exp(-rate x)) / (1 - exp(-rate cutoff)) is the law
    of the uncensored ranges when those at the cutoff are dropped.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("KS test needs a nonempty sample")
    if rate <= 0 or cutoff <= 0:
        raise ValueError("rate and cutoff must be > 0")
    x = np.sort(samples)
    n = x.size
    cdf = (1.0 - np.exp(-rate * x)) / (1.0 - math.exp(-rate * cutoff))
    i = np.arange(1, n + 1)
    statistic = float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
    critical = KS_COEFF_1PCT / math.sqrt(n)
    return KsResult(statistic=statistic, n=n, critical_1pct=critical, passed=statistic < critical)


@dataclass(frozen=True)
class Quantity:
    """One `estimate` quantity: its runner and the facts `ExperimentConfig.validate` reads."""

    runner: Callable[[ExperimentConfig], EstimateRecord | KsResult | FormulaCheckResult]
    simulated: bool = True  # False: reads no option (formula_check)
    law: bool = False  # a Boolean model with a grain law; False: a hyperplane process
    sweep: bool = False  # sweeps radially out to the cutoff
    replicated: bool = False  # takes its standard error across replications
    mean: str | None = None  # the mean it estimates, which must be finite: a > d - 1
    check: Callable[[ExperimentConfig], None] | None = None  # refuses its own options by UsageError
    stratified: Callable | None = None  # the runner under --stratified


@dataclass
class ExperimentConfig:
    """Parameters of one estimation or goodness-of-fit run."""

    quantity: str
    d: int = 2
    gamma: float | None = 1.0
    law: GrainLaw | None = None
    n_reps: int = 1000
    n_rays: int = 200
    cutoff: float = 12.0
    truncate_at: float | None = None
    r_win: float | None = None
    seed: int = 0
    stratified: bool = False

    def range_rate(self) -> float:
        """Range rate a, the rate of the exponential visibility ranges: gamma v* for grains, else the zero-cell rate."""
        if QUANTITIES[self.quantity].law:
            return self.gamma * grain_moments(self.d, self.law).v_dm1_star
        return closedform.zero_cell_rate(self.d, self.gamma)

    def validate(self) -> None:
        try:
            if self.quantity not in QUANTITIES:
                raise UsageError(f"unknown quantity {self.quantity!r}; choose from {tuple(QUANTITIES)}")
            q = QUANTITIES[self.quantity]
            if not q.simulated:
                return
            if self.seed < 0:
                raise UsageError(f"seed must be >= 0, got {self.seed}")
            if self.d < 2:
                raise UsageError("dimension must be >= 2")
            closedform.kappa(self.d)
            if self.gamma is None:
                raise UsageError(f"{self.quantity} needs an intensity (--gamma)")
            if self.stratified and q.stratified is None:
                takes = [name for name, entry in QUANTITIES.items() if entry.stratified]
                raise UsageError(f"--stratified applies to {' and '.join(takes)} only, not {self.quantity}")
            for name in ("gamma", "cutoff", "truncate_at", "r_win"):
                value = getattr(self, name)
                if value is not None and not math.isfinite(value):
                    raise UsageError(f"{name} must be finite, got {value}")
            if self.gamma <= 0:
                raise UsageError("intensity gamma must be > 0")
            if self.n_reps < 1 or self.n_rays < 1:
                raise UsageError("n_reps and n_rays must be >= 1")
            guard = procsim.MAX_EXPECTED_COUNT
            if self.n_reps > guard:
                raise UsageError(f"n_reps = {self.n_reps} exceeds the resource guard {guard:.0e}")
            # The many-ray sweep casts every ray against blocks of about _BLOCK_TARGET obstacles.
            pairs = self.n_rays * visibility._BLOCK_TARGET
            if q.sweep and q.replicated and pairs > guard:
                raise UsageError(
                    f"n_rays = {self.n_rays} exceeds the resource guard: n_rays x {visibility._BLOCK_TARGET} obstacles "
                    f"per sweep block = {pairs:.3g} ray-obstacle pairs > {guard:.0e}"
                )
            if q.replicated and not self.stratified:
                visibility.check_replications(self.n_reps)
            if self.cutoff <= 0:
                raise UsageError("cutoff must be > 0")
            if q.law and self.law is None:
                raise UsageError(f"quantity {self.quantity} needs a grain law (--grain fixed:R or uniform:A,B)")
            if q.mean and math.isinf(closedform.sinh_exp_integral(self.d, self.range_rate())):
                a = self.range_rate()
                raise UsageError(
                    f"{q.mean} is infinite at range rate a = {a:.6g} <= d-1 = {self.d - 1}; "
                    f"finiteness needs gamma > {(self.d - 1) * self.gamma / a:.6g}"
                )
            if q.sweep and q.replicated:  # the ray-volume averages: ranges of mean 1/a give volumes near vol B(1/a)
                a = self.range_rate()
                with np.errstate(over="ignore", invalid="ignore"):  # a long mean range has volume inf or nan
                    volume = float(closedform.ball_volume(self.d, 1.0 / a)) if a > 0 else math.inf
                if volume < sys.float_info.min:
                    raise UsageError(
                        f"{self.quantity} averages ray volumes near vol B(1/a) = {volume:.3g} at mean range "
                        f"1/a = {1.0 / a:.6g}, which underflows double precision; every estimate would read 0"
                    )
            depth = self.cutoff + (self.law.max_radius if q.law else 0.0)
            if q.sweep and depth > visibility.max_sweep_depth(self.d):
                raise UsageError(
                    f"cutoff {self.cutoff} sweeps to depth {depth:.6g}, beyond the "
                    f"{visibility.max_sweep_depth(self.d):.6g} that double precision allows in d = {self.d}"
                )
            if q.check:
                q.check(self)
            if self.truncate_at is not None and self.truncate_at > self.cutoff:
                raise UsageError(f"truncate_at {self.truncate_at} exceeds cutoff {self.cutoff}")
            if self.truncate_at is not None and self.truncate_at < 0:
                raise UsageError(f"truncate_at must be >= 0, got {self.truncate_at}")
            if self.stratified:
                visibility.band_count(self.truncate_at)
            # A grain sweep ends past the largest grain radius, so each replication samples the grains centred within it.
            if q.law and q.sweep and not self.stratified:
                near = self.n_reps * self.gamma * float(closedform.ball_volume(self.d, self.law.max_radius))
                if near > guard:
                    raise UsageError(
                        f"{self.quantity} samples n_reps * gamma * vol B(max radius) = {near:.3g} grains near the base "
                        f"point, beyond the resource guard {guard:.0e}"
                    )
        except ValueError as exc:  # the library's own refusals: kappa, check_replications, band_count
            raise UsageError(str(exc)) from None


def formula_check() -> FormulaCheckResult:
    """Residuals of the quadrature-vs-closed-form identities; pass when all < 1e-8."""
    checks = {**closedform.ell_identity_residuals(), **closedform.rate_integral_residuals()}
    for d, radius, r in ((2, 1.0, 0.8), (3, 0.5, 0.9)):
        checks[f"steiner_ball(d={d},R={radius},r={r})"] = closedform.steiner_ball_check(d, radius, r)
    worst = max(checks.values())
    return FormulaCheckResult(max_residual=worst, passed=worst < 1e-8, checks=checks)


def _ks_ranges(c: ExperimentConfig, values: np.ndarray, censored: np.ndarray) -> KsResult:
    """ks_exponential of the ranges below the cutoff, against Exp(range rate) truncated there."""
    if censored.all():
        raise UsageError(
            f"every range is censored at the cutoff {c.cutoff}, so no range is left to test; raise --cutoff"
        )
    return ks_exponential(values[~censored], c.range_rate(), c.cutoff)


def _stratified(c: ExperimentConfig) -> EstimateRecord:
    t0 = time.perf_counter()
    est = visibility.estimate_visible_volume_stratified(c.d, c.gamma, c.law, (c.truncate_at,), seed=c.seed)
    values = est.batch_values[:, 0]
    return visibility.make_record(c.quantity, c.d, c.gamma, c.law, values, est.closed_forms[0], c.seed, t0)


def _needs_truncate(c: ExperimentConfig) -> None:
    if c.truncate_at is None:
        raise UsageError(f"{c.quantity} needs --truncate")


def _window(c: ExperimentConfig) -> None:
    if c.d != 2:
        raise UsageError("intersection density verification is restricted to d = 2")
    if c.r_win is None:
        raise UsageError(f"{c.quantity} needs --rwin")
    with np.errstate(over="ignore"):  # a window too wide for a float has area inf, which the estimator's guard refuses
        if not (c.r_win > 0 and closedform.ball_volume(2, c.r_win) > 0):
            raise UsageError(f"rwin must be > 0 with a window area > 0, got {c.r_win}")
    try:
        density = closedform.intersection_density(2, c.gamma, c.law)
    except OverflowError:
        raise UsageError("the intersection density kappa_2 (v* gamma)^2 overflows double precision") from None
    if density < sys.float_info.min:
        raise UsageError(
            f"the intersection density kappa_2 (v* gamma)^2 = {density:.3g} underflows double precision; "
            "every estimate would read 0"
        )


def _grain_cap(c: ExperimentConfig) -> None:
    m = c.law.max_radius
    if procsim.cap_share(c.d, procsim.grain_cap_gap(m, c.cutoff + m)) == 0.0:
        raise UsageError(
            f"grain radius {m:g} is too small for the single-ray sweep to cutoff {c.cutoff:g}: the directions from "
            f"which a grain at depth {c.cutoff + m:.6g} can reach the ray have share 0 in double precision"
        )


QUANTITIES = {
    "visvol": Quantity(
        lambda c: visibility.estimate_visible_volume(c.d, c.gamma, c.law, c.n_reps, c.n_rays, None, c.cutoff, c.seed),
        law=True, sweep=True, replicated=True, mean="mean visible volume",
    ),
    "visvol_truncated": Quantity(
        lambda c: visibility.estimate_visible_volume(
            c.d, c.gamma, c.law, c.n_reps, c.n_rays, c.truncate_at, c.cutoff, c.seed
        ),
        law=True, sweep=True, replicated=True, check=_needs_truncate, stratified=_stratified,
    ),
    "cdf_boolean": Quantity(
        lambda c: _ks_ranges(c, *visibility.sample_visibility_ranges(c.d, c.gamma, c.law, c.n_reps, c.cutoff, c.seed)),
        law=True, sweep=True, check=_grain_cap,
    ),
    "cdf_tessellation": Quantity(
        lambda c: _ks_ranges(c, *visibility.sample_zero_cell_ranges(c.d, c.gamma, c.n_reps, c.cutoff, c.seed)),
        sweep=True,
    ),
    "intersection_density": Quantity(
        lambda c: intersect.estimate_intersection_density(c.gamma, c.law, c.r_win, c.n_reps, c.seed),
        law=True, replicated=True, check=_window,
    ),
    "zero_cell": Quantity(
        lambda c: visibility.estimate_zero_cell_volume(c.d, c.gamma, c.n_reps, c.n_rays, c.cutoff, c.seed),
        sweep=True, replicated=True, mean="mean zero-cell volume",
    ),
    "formula_check": Quantity(lambda c: formula_check(), simulated=False),
}


def run(config: ExperimentConfig) -> EstimateRecord | KsResult | FormulaCheckResult:
    """Dispatch a validated configuration; deterministic given the seed."""
    config.validate()
    q = QUANTITIES[config.quantity]
    return (q.stratified if config.stratified else q.runner)(config)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

RECORD_FIELDS = tuple(f.name for f in fields(EstimateRecord))


def _sig12(x) -> float | None:
    if x is None:
        return None
    return float(f"{x:.12g}")


def record_dict(result: EstimateRecord | KsResult | FormulaCheckResult) -> dict:
    """Flat mapping with stable field order and 12 significant digits."""
    if isinstance(result, EstimateRecord):
        raw = {name: getattr(result, name) for name in RECORD_FIELDS}
        for name in ("gamma", "estimate", "stderr", "censored_fraction", "closed_form", "z_score", "runtime_ms"):
            raw[name] = _sig12(raw[name])
        return raw
    if isinstance(result, KsResult):
        return {
            "quantity": "ks",
            "statistic": _sig12(result.statistic),
            "n": result.n,
            "critical_1pct": _sig12(result.critical_1pct),
            "pass": result.passed,
        }
    return {
        "quantity": "formula_check",
        "max_residual": _sig12(result.max_residual),
        "pass": result.passed,
    }


def emit(result, fmt: str, out) -> None:
    """Write the result as json or csv to a path or text file object."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {fmt!r}")
    data = record_dict(result)
    if fmt == "json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        header = ",".join(data)
        row = ",".join("" if v is None else str(v) for v in data.values())
        text = header + "\n" + row + "\n"
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
