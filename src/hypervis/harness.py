"""The option and quantity tables of `hypervis estimate`, experiment configs and their validation, KS test, emission."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import closedform, intersect, visibility
from .closedform import GrainLaw
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


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise ValueError(f"must be an integer >= 0, got {text!r}")
    return int(text)


class Option(NamedTuple):
    """One `estimate` option: its flag, the parser of its text, what it sets, and its value when unset (None: none).
    OPTIONS holds one for each option field of ExperimentConfig: the one place of their flags and defaults."""

    flag: str
    parse: Callable[[str], object]
    help: str
    default: object = None


OPTIONS = {
    "d": Option("--dim", int, "the dimension d", 2),
    "gamma": Option("--gamma", float, "the intensity"),
    "law": Option("--grain", closedform.parse_grain_law, "a grain law, fixed:R or uniform:A,B"),
    "n_reps": Option("--reps", int, "replications", 1000),
    "n_rays": Option("--rays", int, "rays per replication", 200),
    "cutoff": Option("--cutoff", float, "the depth at which each range is censored", 12.0),
    "truncate_at": Option("--truncate", float, "the radius within which the visible volume is taken"),
    "r_win": Option("--rwin", float, "the radius of the observation window"),
    "seed": Option("--seed", _seed, "the master seed, an integer >= 0", 0),
}


@dataclass(frozen=True)
class Quantity:
    """One `estimate` quantity: its runner, the library check validation calls, and the OPTIONS it reads."""

    runner: Callable[[ExperimentConfig], EstimateRecord | KsResult | FormulaCheckResult]
    check: Callable[[ExperimentConfig], None]
    reads: tuple[str, ...] = ()  # every OPTIONS field the runner and check read; no other may be set


@dataclass
class ExperimentConfig:
    """Parameters of one estimation or goodness-of-fit run; an option left None is unset, and validate fills it."""

    quantity: str
    d: int | None = None
    gamma: float | None = None
    law: GrainLaw | None = None
    n_reps: int | None = None
    n_rays: int | None = None
    cutoff: float | None = None
    truncate_at: float | None = None
    r_win: float | None = None
    seed: int | None = None

    def validate(self) -> None:
        """Refuse by UsageError what the quantity cannot run, and give each unset option it reads its default."""
        if self.quantity not in QUANTITIES:
            raise UsageError(f"unknown quantity {self.quantity!r}; choose from {tuple(QUANTITIES)}")
        q = QUANTITIES[self.quantity]
        for name, option in OPTIONS.items():  # defaults filled, an option is set if and only if the quantity reads it
            if name in q.reads and getattr(self, name) is None:
                setattr(self, name, option.default)
            if (getattr(self, name) is None) == (name in q.reads):
                raise UsageError(f"{self.quantity} {'needs' if name in q.reads else 'does not read'} {option.flag}")
        try:
            q.check(self)
        except ValueError as exc:  # the library's refusals, its resource guard's among them
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
        raise UsageError(f"every range is censored at the cutoff {c.cutoff}: no range is left to test; raise --cutoff")
    return ks_exponential(values[~censored], closedform.range_rate(c.d, c.gamma, c.law), c.cutoff)


QUANTITIES = {
    "visvol": Quantity(
        lambda c: visibility.estimate_visible_volume(c.d, c.gamma, c.law, c.n_reps, c.n_rays, None, c.cutoff, c.seed),
        lambda c: visibility.check_sweep(c.quantity, c.d, c.gamma, c.law, c.n_reps, c.cutoff, c.seed, c.n_rays),
        reads=("d", "gamma", "law", "n_reps", "n_rays", "cutoff", "seed"),
    ),
    "visvol_truncated": Quantity(
        lambda c: visibility.estimate_visible_volume(
            c.d, c.gamma, c.law, c.n_reps, c.n_rays, c.truncate_at, c.cutoff, c.seed
        ),
        lambda c: visibility.check_sweep(
            c.quantity, c.d, c.gamma, c.law, c.n_reps, c.cutoff, c.seed, c.n_rays, c.truncate_at
        ),
        reads=("d", "gamma", "law", "n_reps", "n_rays", "cutoff", "truncate_at", "seed"),
    ),
    "visvol_stratified": Quantity(
        lambda c: visibility.estimate_visible_volume_stratified(c.d, c.gamma, c.law, (c.truncate_at,), c.seed)[0],
        lambda c: visibility.check_sweep(c.quantity, c.d, c.gamma, c.law, None, c.truncate_at, c.seed, stratified=True),
        reads=("d", "gamma", "law", "truncate_at", "seed"),
    ),
    "cdf_boolean": Quantity(
        lambda c: _ks_ranges(c, *visibility.sample_visibility_ranges(c.d, c.gamma, c.law, c.n_reps, c.cutoff, c.seed)),
        lambda c: visibility.check_sweep(c.quantity, c.d, c.gamma, c.law, c.n_reps, c.cutoff, c.seed, replicated=False),
        reads=("d", "gamma", "law", "n_reps", "cutoff", "seed"),
    ),
    "cdf_tessellation": Quantity(
        lambda c: _ks_ranges(c, *visibility.sample_zero_cell_ranges(c.d, c.gamma, c.n_reps, c.cutoff, c.seed)),
        lambda c: visibility.check_sweep(c.quantity, c.d, c.gamma, None, c.n_reps, c.cutoff, c.seed, replicated=False),
        reads=("d", "gamma", "n_reps", "cutoff", "seed"),
    ),
    "intersection_density": Quantity(
        lambda c: intersect.estimate_intersection_density(c.gamma, c.law, c.r_win, c.n_reps, c.seed),
        lambda c: intersect.check_window(c.gamma, c.law, c.r_win, c.n_reps, c.seed),
        reads=("gamma", "law", "n_reps", "r_win", "seed"),
    ),
    "zero_cell": Quantity(
        lambda c: visibility.estimate_zero_cell_volume(c.d, c.gamma, c.n_reps, c.n_rays, c.cutoff, c.seed),
        lambda c: visibility.check_sweep(c.quantity, c.d, c.gamma, None, c.n_reps, c.cutoff, c.seed, c.n_rays),
        reads=("d", "gamma", "n_reps", "n_rays", "cutoff", "seed"),
    ),
    "formula_check": Quantity(lambda c: formula_check(), lambda c: None),  # reads no option: nothing to check
}


def run(config: ExperimentConfig) -> EstimateRecord | KsResult | FormulaCheckResult:
    """Dispatch a validated configuration; deterministic given the seed."""
    config.validate()
    return QUANTITIES[config.quantity].runner(config)


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
    else:  # the csv module quotes a field that holds a comma, such as a uniform law's grain_params
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([data, data.values()])
        text = buf.getvalue()
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
