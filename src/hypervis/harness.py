"""Experiment configuration, statistical utilities, dispatch, and result emission."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import closedform, intersect, visibility
from .closedform import GrainLaw, grain_moments
from .visibility import EstimateRecord

QUANTITIES = (
    "visvol",
    "visvol_truncated",
    "cdf_boolean",
    "cdf_tessellation",
    "intersection_density",
    "zero_cell",
    "formula_check",
)

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

    def validate(self) -> None:
        if self.quantity not in QUANTITIES:
            raise UsageError(f"unknown quantity {self.quantity!r}; choose from {QUANTITIES}")
        if self.quantity == "formula_check":
            return
        if self.d < 2:
            raise UsageError("dimension must be >= 2")
        if self.gamma is None:
            raise UsageError(f"{self.quantity} needs an intensity (--gamma)")
        if self.stratified and self.quantity != "visvol_truncated":
            raise UsageError(f"--stratified applies to visvol_truncated only, not {self.quantity}")
        for name in ("gamma", "cutoff", "truncate_at", "r_win"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if self.gamma <= 0:
            raise UsageError("intensity gamma must be > 0")
        if self.n_reps < 1 or self.n_rays < 1:
            raise UsageError("n_reps and n_rays must be >= 1")
        estimator = self.quantity in ("visvol", "visvol_truncated", "zero_cell", "intersection_density")
        if estimator and not self.stratified and self.n_reps < 2:
            raise UsageError(f"{self.quantity} takes its standard error across replications and needs n_reps >= 2")
        if self.cutoff <= 0:
            raise UsageError("cutoff must be > 0")
        needs_law = self.quantity in ("visvol", "visvol_truncated", "cdf_boolean", "intersection_density")
        if needs_law and self.law is None:
            raise UsageError(f"quantity {self.quantity} needs a grain law (--grain fixed:R or uniform:A,B)")
        if self.quantity == "visvol":
            a = self.gamma * grain_moments(self.d, self.law).v_dm1_star
            if a <= self.d - 1:
                threshold = (self.d - 1) / grain_moments(self.d, self.law).v_dm1_star
                raise UsageError(
                    f"mean visible volume is infinite at gamma*v* = {a:.6g} <= d-1 = {self.d - 1}; "
                    f"finiteness needs gamma > {threshold:.6g}; use visvol_truncated instead"
                )
        sweeps = self.quantity in ("visvol", "visvol_truncated", "cdf_boolean", "cdf_tessellation", "zero_cell")
        depth = self.cutoff + (self.law.max_radius if needs_law else 0.0)
        if sweeps and not self.stratified and depth > visibility.max_sweep_depth(self.d):
            raise UsageError(
                f"cutoff {self.cutoff} sweeps to depth {depth:.6g}, beyond the "
                f"{visibility.max_sweep_depth(self.d):.6g} that double precision allows in d = {self.d}"
            )
        if self.quantity == "zero_cell" and math.isinf(closedform.zero_cell_mean_volume(self.d, self.gamma)):
            rate = closedform.zero_cell_rate(self.d, self.gamma)
            threshold = (self.d - 1) / closedform.zero_cell_rate(self.d, 1.0)
            raise UsageError(
                f"mean zero-cell volume is infinite at rate {rate:.6g} <= d-1 = {self.d - 1}; "
                f"finiteness needs gamma > {threshold:.6g}"
            )
        if self.quantity == "visvol_truncated" and self.truncate_at is None:
            raise UsageError("visvol_truncated needs --truncate")
        if self.truncate_at is not None and self.truncate_at > self.cutoff:
            raise UsageError(f"truncate_at {self.truncate_at} exceeds cutoff {self.cutoff}")
        if self.truncate_at is not None and self.truncate_at < 0:
            raise UsageError(f"truncate_at must be >= 0, got {self.truncate_at}")
        if self.stratified:
            try:
                visibility.band_count(self.truncate_at)
            except ValueError as exc:
                raise UsageError(f"stratified truncate_at: {exc}") from None
        if self.quantity == "intersection_density":
            if self.d != 2:
                raise UsageError("intersection density verification is restricted to d = 2")
            if self.r_win is None:
                raise UsageError("intersection_density needs --rwin")
            if self.r_win <= 0:
                raise UsageError(f"rwin must be > 0, got {self.r_win}")


def formula_check() -> FormulaCheckResult:
    """Residuals of the quadrature-vs-closed-form identities; pass when all < 1e-8."""
    checks = {**closedform.ell_identity_residuals(), **closedform.rate_integral_residuals()}
    for d, radius, r in ((2, 1.0, 0.8), (3, 0.5, 0.9)):
        checks[f"steiner_ball(d={d},R={radius},r={r})"] = closedform.steiner_ball_check(d, radius, r)
    worst = max(checks.values())
    return FormulaCheckResult(max_residual=worst, passed=worst < 1e-8, checks=checks)


def _ks_uncensored(values: np.ndarray, censored: np.ndarray, rate: float, cutoff: float) -> KsResult:
    """ks_exponential of the ranges below the cutoff, against the law truncated there."""
    if censored.all():
        raise UsageError(
            f"every range is censored at the cutoff {cutoff}, so no range is left to test; raise --cutoff"
        )
    return ks_exponential(values[~censored], rate, cutoff)


def run(config: ExperimentConfig) -> EstimateRecord | KsResult | FormulaCheckResult:
    """Dispatch a validated configuration; deterministic given the seed."""
    config.validate()
    q = config.quantity
    if q == "formula_check":
        return formula_check()
    if q == "visvol_truncated" and config.stratified:
        t0 = time.perf_counter()
        est = visibility.estimate_visible_volume_stratified(
            config.d, config.gamma, config.law, (config.truncate_at,), seed=config.seed
        )
        values = est.batch_values[:, 0]
        return visibility.make_record(q, config.d, config.gamma, config.law, values, est.closed_forms[0], config.seed, t0)
    if q in ("visvol", "visvol_truncated"):
        truncate_at = config.truncate_at if q == "visvol_truncated" else None
        return visibility.estimate_visible_volume(
            config.d, config.gamma, config.law, config.n_reps, config.n_rays, truncate_at, config.cutoff, config.seed
        )
    if q == "cdf_boolean":
        values, censored = visibility.sample_visibility_ranges(
            config.d, config.gamma, config.law, config.n_reps, config.cutoff, config.seed
        )
        rate = config.gamma * grain_moments(config.d, config.law).v_dm1_star
        return _ks_uncensored(values, censored, rate, config.cutoff)
    if q == "cdf_tessellation":
        values, censored = visibility.sample_zero_cell_ranges(
            config.d, config.gamma, config.n_reps, config.cutoff, config.seed
        )
        return _ks_uncensored(values, censored, closedform.zero_cell_rate(config.d, config.gamma), config.cutoff)
    if q == "intersection_density":
        return intersect.estimate_intersection_density(
            config.gamma, config.law, config.r_win, config.n_reps, config.seed
        )
    if q == "zero_cell":
        return visibility.estimate_zero_cell_volume(
            config.d, config.gamma, config.n_reps, config.n_rays, config.cutoff, config.seed
        )
    raise UsageError(f"unhandled quantity {q!r}")


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
