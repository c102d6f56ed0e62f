"""Acceptance verification suite: each criterion runs at its stated tolerance
with a pinned seed and reports one pass/fail line. Statistical criteria were
pre-verified for the pinned seeds; --fresh-seed reruns report without asserting,
and print their master seed, which run_all(seed) takes to re-run them.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from . import closedform, harness, intersect, visibility
from .closedform import FixedRadius
from .rng import stream

DEFAULT_SEED = 42


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime_s: float
    z_scores: list[float] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.runtime_s:6.1f}s) {self.name}: {self.detail}"


CRITERIA: dict[int, Callable[[int], CriterionResult]] = {}


def _criterion(number: int, name: str, max_runtime_s: float = math.inf):
    """Register body(seed) -> (passed, detail[, z_scores]) as a timed criterion that fails at max_runtime_s."""

    def register(body: Callable[[int], tuple]) -> Callable[[int], CriterionResult]:
        @functools.wraps(body)
        def criterion(seed: int) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail, *z_scores = body(seed)
            runtime = time.perf_counter() - t0
            return CriterionResult(number, name, passed and runtime < max_runtime_s, detail, runtime, *z_scores)

        CRITERIA[number] = criterion
        return criterion

    return register


@_criterion(1, "exponential visibility law", max_runtime_s=30.0)
def criterion_1(seed: int) -> tuple:
    """Exponential visibility law: KS of 1e4 conditioned ranges against Exp(2 gamma sinh 0.5)."""
    law = FixedRadius(0.5)
    values, censored = visibility.sample_visibility_ranges(2, 1.5, law, 10_000, 12.0, seed)
    rate = 2.0 * 1.5 * math.sinh(0.5)
    ks = harness.ks_exponential(values[~censored], rate)
    return ks.passed, f"KS={ks.statistic:.5f} < {ks.critical_1pct:.5f} (n={ks.n}, rate={rate:.6f})"


@_criterion(2, "mean visible volume", max_runtime_s=120.0)
def criterion_2(seed: int) -> tuple:
    """Mean visible volume: |z| < 3 against 2 pi^3/(gamma^2 v1^2 - pi^2)."""
    law = FixedRadius(0.5)
    rec = visibility.estimate_visible_volume(2, 1.5, law, 2000, 200, None, 12.0, seed)
    detail = f"estimate={rec.estimate:.4f} +- {rec.stderr:.4f}, closed={rec.closed_form:.5f}, z={rec.z_score:+.2f}"
    return abs(rec.z_score) < 3.0, detail, [rec.z_score]


@_criterion(3, "finiteness threshold")
def criterion_3(seed: int) -> tuple:
    """Finiteness threshold: Infinite exactly for gamma <= beta_c; beta_c = 0.9595 to 4 decimals."""
    law = FixedRadius(0.5)
    beta_c = closedform.visibility_threshold(2, 0.5)
    at = closedform.mean_visible_volume(2, beta_c, law)
    below = closedform.mean_visible_volume(2, 0.9 * beta_c, law)
    above = closedform.mean_visible_volume(2, beta_c * (1.0 + 1e-6), law)
    ok_inf = math.isinf(at) and math.isinf(below) and math.isfinite(above)
    ok_value = round(beta_c, 4) == 0.9595
    detail = f"beta_c={beta_c:.6f}, vol(beta_c)={at}, vol(0.9 beta_c)={below}, vol(beta_c(1+1e-6)) finite={math.isfinite(above)}"
    return ok_inf and ok_value, detail


@_criterion(4, "intersection density", max_runtime_s=120.0)
def criterion_4(seed: int) -> tuple:
    """Intersection density: |z| < 3 against 4 pi sinh^2(0.5)."""
    rec = intersect.estimate_intersection_density(1.0, FixedRadius(0.5), 3.0, 2000, seed)
    detail = f"estimate={rec.estimate:.4f} +- {rec.stderr:.4f}, closed={rec.closed_form:.5f}, z={rec.z_score:+.2f}"
    return abs(rec.z_score) < 3.0, detail, [rec.z_score]


@_criterion(5, "zero-cell volume", max_runtime_s=120.0)
def criterion_5(seed: int) -> tuple:
    """Zero cell: |z| < 3 against the part of 2 pi^3/(16 - pi^2) within the cutoff 12, and KS of ranges against Exp(4/pi)."""
    rec = visibility.estimate_zero_cell_volume(2, 2.0, 2000, 200, 12.0, seed)
    values, censored = visibility.sample_zero_cell_ranges(2, 2.0, 10_000, 12.0, seed + 1)
    ks = harness.ks_exponential(values[~censored], 4.0 / math.pi)
    detail = (
        f"estimate={rec.estimate:.4f} +- {rec.stderr:.4f}, closed={rec.closed_form:.5f}, "
        f"z={rec.z_score:+.2f}; KS={ks.statistic:.5f} < {ks.critical_1pct:.5f}"
    )
    return abs(rec.z_score) < 3.0 and ks.passed, detail, [rec.z_score]


@_criterion(6, "ell identity", max_runtime_s=5.0)
def criterion_6(seed: int) -> tuple:
    """Steiner-coefficient identity: quadrature residuals < 1e-8 on the grid."""
    worst = max(closedform.ell_identity_residuals().values())
    return worst < 1e-8, f"max residual {worst:.2e}"


@_criterion(7, "rate-integral identity")
def criterion_7(seed: int) -> tuple:
    """Rate integral: gamma form vs quadrature < 1e-10 relative; spot value (2,2) = 1/3."""
    worst = max(closedform.rate_integral_residuals().values())
    spot = abs(closedform.sinh_exp_integral(2, 2.0) - 1.0 / 3.0)
    return worst < 1e-10 and spot < 1e-14, f"max rel err {worst:.2e}, |value(2,2) - 1/3| = {spot:.2e}"


@_criterion(8, "Steiner and ball-volume checks")
def criterion_8(seed: int) -> tuple:
    """Steiner fit V0(ball R=1) = cosh 1 within 1e-6; MC ball volume z < 3."""
    coeffs = closedform.steiner_ball_coefficients(2, 1.0)
    v0_err = abs(coeffs[0] - math.cosh(1.0))
    est, stderr = closedform.mc_ball_volume(2, 1.0, 200_000, stream(seed, 808))
    target = 2.0 * math.pi * (math.cosh(1.0) - 1.0)
    z = (est - target) / stderr
    detail = f"|V0 - cosh 1| = {v0_err:.2e}; MC volume {est:.4f} +- {stderr:.4f} vs {target:.5f}, z={z:+.2f}"
    return v0_err < 1e-6 and abs(z) < 3.0, detail, [z]


@_criterion(9, "critical truncated growth", max_runtime_s=180.0)
def criterion_9(seed: int) -> tuple:
    """Critical truncated growth: (estimate(20) - estimate(10))/10 within 5% of pi."""
    law = FixedRadius(0.5)
    gamma = closedform.visibility_threshold(2, 0.5)
    at_10, at_20 = visibility.estimate_visible_volume_stratified(2, gamma, law, (10.0, 20.0), seed=seed)
    increment = (at_20.estimate - at_10.estimate) / 10.0
    detail = (
        f"estimates {at_10.estimate:.3f}@10, {at_20.estimate:.3f}@20; "
        f"increment/10 = {increment:.4f} vs pi = {math.pi:.4f} ({abs(increment / math.pi - 1) * 100:.2f}%)"
    )
    return abs(increment - math.pi) < 0.05 * math.pi, detail


@_criterion(10, "near-critical scaling")
def criterion_10(seed: int) -> tuple:
    """Near-critical scaling: closed form within 1% of omega_d/(2^{d-1} delta) for d in {2, 3}."""
    delta = 1e-3
    worst = 0.0
    for d in (2, 3):
        law = FixedRadius(0.5)
        v_star = closedform.grain_moments(d, law).v_dm1_star
        gamma = (d - 1 + delta) / v_star
        ratio = closedform.mean_visible_volume(d, gamma, law) / closedform.critical_scaling(d, delta)
        worst = max(worst, abs(ratio - 1.0))
    return worst < 0.01, f"max |ratio - 1| = {worst:.2e}"


@_criterion(11, "Crofton segment crossings")
def criterion_11(seed: int) -> tuple:
    """Crofton consistency: mean crossings of a unit segment within 3 stderr of 2/pi."""
    rec = visibility.estimate_segment_crossings(2, 1.0, 1.0, 10_000, seed)
    detail = f"mean={rec.estimate:.4f} +- {rec.stderr:.4f} vs {rec.closed_form:.5f}, z={rec.z_score:+.2f}"
    return abs(rec.z_score) < 3.0, detail, [rec.z_score]


def run_all(seed: int = DEFAULT_SEED, only: set[int] | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria at the master seed, the pinned one by default.

    Each criterion draws from its own sub-seed (master + 1000 * number) so the
    pinned runs are independent and individually pre-verified.
    """
    results = []
    zs: list[float] = []
    for number, fn in sorted(CRITERIA.items()):
        if only is not None and number not in only:
            continue
        res = fn(seed + 1000 * number)
        results.append(res)
        zs.extend(res.z_scores)
    if only is None and zs:
        worst = max(abs(z) for z in zs)
        results.append(
            CriterionResult(12, "family-wise z bound", worst < 4.0, f"max |z| = {worst:.2f} < 4", 0.0)
        )
    return results
