"""Acceptance suite: every criterion at its stated tolerance, one line each.

The full set also runs from the command line as `hypervis verify`.
Statistical criteria use the pinned master seed and were pre-verified.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypervis import acceptance

_NAMES = {
    1: "exponential visibility law (KS, d=2, fixed 0.5, gamma=1.5, n=1e4, <30s)",
    2: "mean visible volume (|z|<3 vs gamma-form, 2000x200, <2min)",
    3: "finiteness threshold (Infinite iff gamma <= beta_c; beta_c = 0.9595)",
    4: "intersection density (|z|<3 vs kappa_2 (v* gamma)^2, <2min)",
    5: "zero-cell volume (|z|<3 and KS vs Exp(4/pi), <2min)",
    6: "ell identity residuals < 1e-8 on the (d,k,j) x r grid (<5s)",
    7: "rate integral: gamma form vs quadrature < 1e-10; value(2,2)=1/3",
    8: "Steiner fit V0 = cosh 1 within 1e-6; MC ball volume |z|<3",
    9: "critical truncated growth: increment/10 within 5% of pi (<3min)",
    10: "near-critical scaling within 1% for d in {2,3}",
    11: "Crofton crossings within 3 stderr of 2/pi",
    12: "family-wise max |z| < 4",
}


@pytest.fixture(scope="module")
def results():
    out = {res.number: res for res in acceptance.run_all()}
    print()
    for number in sorted(out):
        print(out[number].line())
    return out


@pytest.mark.parametrize("number", sorted(_NAMES))
def test_criterion(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, f"criterion {number} [{_NAMES[number]}]: {res.detail}"


# Detail lines at the pinned master seed of the criteria that draw random numbers, as they read
# when every replication built its generator with stream(seed, i) alone. rng.streams derives the
# same generators, so the lines must not change. Criterion 9 reads the band experiments of
# procsim.band_first_touches as one labelled Poisson draw per band. Criteria 2 and 5 (and so 12)
# read the many-ray sweeps whose deep blocks draw only the union of the live rays' caps. Criterion 5
# compares with the zero cell's mean within its cutoff 12, the mean its censored ranges estimate.
# Criterion 8 prints its Steiner fit's residual |V0 - cosh 1| only against the bound 1e-6: the residual is the
# rounding of ell's Gauss-Legendre rule, 2.22e-16 at AVX-512 dispatch and 6.66e-16 below it.
# Criteria 1 and 5's KS read single-ray ranges whose replications draw no ray direction, and criterion 11
# the segment crossings' planes drawn without a sign.
_PINNED_DETAILS = {
    1: "KS=0.00968 < 0.01628 (n=10000, rate=1.563286)",
    2: "estimate=4.3843 +- 0.1070, closed=4.35165, z=+0.31",
    4: "estimate=3.4245 +- 0.0199, closed=3.41228, z=+0.61",
    5: "estimate=8.7408 +- 0.3165, closed=9.68247, z=-2.98; KS=0.00741 < 0.01628",
    8: "|V0 - cosh 1| < 1e-6; MC volume 3.4104 +- 0.0011 vs 3.41228, z=-1.80",
    9: "estimates 29.766@10, 61.105@20; increment/10 = 3.1339 vs pi = 3.1416 (0.24%)",
    11: "mean=0.6415 +- 0.0079 vs 0.63662, z=+0.61",
    12: "max |z| = 2.98 < 4",
}


@pytest.mark.parametrize("number", sorted(_PINNED_DETAILS))
def test_pinned_detail(results, number):
    assert results[number].detail == _PINNED_DETAILS[number]


# The pinned checks: the detail lines above and the PINNED_* tables of test_visibility and test_harness.
PINNED_CHECKS = [
    "test_acceptance.py::test_pinned_detail",
    "test_visibility.py::TestSweepPinned::test_estimate",
    "test_visibility.py::TestSweepPinned::test_ranges",
    "test_harness.py::TestPinnedRecords::test_record",
]
# In the child: every SIMD target that numpy dispatches to is off, and pytest runs the pinned checks.
_AT_BASELINE = """import sys, pytest
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as umath
assert not any(umath.__cpu_features__[f] for f in umath.__cpu_dispatch__), "numpy still dispatches above its baseline"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def test_pinned_checks_hold_at_baseline_dispatch():
    # numpy's vectorized transcendentals round differently at each SIMD level it dispatches to; the pinned checks
    # must hold at its baseline too. NPY_DISABLE_CPU_FEATURES lowers the dispatch of the child interpreter alone.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    if not umath.__cpu_dispatch__:
        pytest.skip("this numpy build dispatches to no SIMD target above its baseline")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__))
    argv = [sys.executable, "-c", _AT_BASELINE, *(str(tests / check) for check in PINNED_CHECKS)]
    child = subprocess.run(argv, cwd=tests.parent, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]
