"""Experiment configuration, statistical utilities, dispatch, and result emission."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    gamma: float = 1.0
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
        for name in ("gamma", "cutoff", "truncate_at", "r_win"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")
        if self.gamma <= 0:
            raise UsageError("intensity gamma must be > 0")
        if self.n_reps < 1 or self.n_rays < 1:
            raise UsageError("n_reps and n_rays must be >= 1")
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
        if self.quantity == "visvol_truncated" and self.truncate_at is None:
            raise UsageError("visvol_truncated needs --truncate")
        if self.truncate_at is not None and self.truncate_at > self.cutoff:
            raise UsageError(f"truncate_at {self.truncate_at} exceeds cutoff {self.cutoff}")
        if self.quantity == "intersection_density":
            if self.d != 2:
                raise UsageError("intersection density verification is restricted to d = 2")
            if self.r_win is None:
                raise UsageError("intersection_density needs --rwin")


def formula_check() -> FormulaCheckResult:
    """Residuals of the quadrature-vs-closed-form identities; pass when all < 1e-8."""
    checks: dict[str, float] = {}
    for d, k, j in ((3, 1, 0), (3, 2, 0), (3, 2, 1), (4, 2, 1), (4, 3, 1)):
        for r in (0.3, 1.0, 2.0):
            checks[f"ell_identity(d={d},k={k},j={j},r={r})"] = closedform.verify_ell_identity(d, k, j, r)
    for d, a in ((2, 1.5), (2, 2.0), (3, 4.0), (4, 6.0)):
        gamma_form = closedform.sinh_exp_integral(d, a)
        quad_form = closedform.sinh_exp_integral_quadrature(d, a)
        checks[f"sinh_exp_integral(d={d},a={a})"] = abs(gamma_form - quad_form) / gamma_form
    for d, radius, r in ((2, 1.0, 0.8), (3, 0.5, 0.9)):
        checks[f"steiner_ball(d={d},R={radius},r={r})"] = closedform.steiner_ball_check(d, radius, r)
    worst = max(checks.values())
    return FormulaCheckResult(max_residual=worst, passed=worst < 1e-8, checks=checks)


def run(config: ExperimentConfig) -> EstimateRecord | KsResult | FormulaCheckResult:
    """Dispatch a validated configuration; deterministic given the seed."""
    config.validate()
    q = config.quantity
    if q == "formula_check":
        return formula_check()
    if q == "visvol":
        return visibility.estimate_visible_volume(
            config.d, config.gamma, config.law, config.n_reps, config.n_rays, None, config.cutoff, config.seed
        )
    if q == "visvol_truncated":
        if config.stratified:
            est = visibility.estimate_visible_volume_stratified(
                config.d, config.gamma, config.law, (config.truncate_at,), seed=config.seed
            )
            return visibility.make_record(
                "visvol_truncated",
                config.d,
                config.gamma,
                config.law,
                est.estimates[0],
                est.stderrs[0],
                0,
                0,
                0.0,
                est.closed_forms[0],
                config.seed,
                est.runtime_ms,
            )
        return visibility.estimate_visible_volume(
            config.d,
            config.gamma,
            config.law,
            config.n_reps,
            config.n_rays,
            config.truncate_at,
            config.cutoff,
            config.seed,
        )
    if q == "cdf_boolean":
        values, censored = visibility.sample_visibility_ranges(
            config.d, config.gamma, config.law, config.n_reps, config.cutoff, config.seed
        )
        rate = config.gamma * grain_moments(config.d, config.law).v_dm1_star
        return ks_exponential(values[~censored], rate, config.cutoff)
    if q == "cdf_tessellation":
        values, censored = visibility.sample_zero_cell_ranges(
            config.d, config.gamma, config.n_reps, config.cutoff, config.seed
        )
        return ks_exponential(values[~censored], closedform.zero_cell_rate(config.d, config.gamma), config.cutoff)
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

RECORD_FIELDS = (
    "quantity",
    "dim",
    "gamma",
    "grain_kind",
    "grain_params",
    "estimate",
    "stderr",
    "n_reps",
    "n_rays",
    "censored_fraction",
    "closed_form",
    "z_score",
    "seed",
    "runtime_ms",
)


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
