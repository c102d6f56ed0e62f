"""Every estimator and range sampler refuses what it cannot serve itself, called directly and not only through
`hypervis estimate`: by ValueError, or procsim.ResourceGuardError for the resource guard's rules, before it
builds any generator."""

import math
import re

import pytest

from hypervis import closedform as cf
from hypervis import intersect, procsim, rng, visibility

HALF = cf.FixedRadius(0.5)
# gamma whose range rate a = gamma v* is 1 + 1e-13, within the finite-mean rule's guard of d - 1 = 1
NEAR_CRITICAL = (1.0 + 1e-13) / cf.grain_moments(2, HALF).v_dm1_star
GUARD = procsim.ResourceGuardError

PROBES = {
    # the intersection density's closed form overflows, as a bare OverflowError unless refused first
    "density-overflow": (lambda: intersect.estimate_intersection_density(1e200, HALF, 1.0, 3, 0),
                         ValueError, "intersection density kappa_2 (v* gamma)^2 overflows"),
    # grains too small to cross in double precision: unrefused, the estimate reads 0.0 against 0.0
    "density-underflow": (lambda: intersect.estimate_intersection_density(1.0, cf.FixedRadius(1e-300), 1.0, 3, 0),
                          ValueError, "= 0 underflows double precision"),
    "window-area": (lambda: intersect.estimate_intersection_density(1.0, HALF, 1e-300, 3, 0),
                    ValueError, "rwin must be > 0 with a window area > 0, got 1e-300"),
    "window-pairs": (lambda: intersect.estimate_intersection_density(1e4, HALF, 3.0, 2, 0),
                     GUARD, "expected grain pairs per realization = 957402428663.1"),
    # the ray volumes underflow: unrefused, the estimate reads 0.0 against 1.37e-282
    "zero-cell-underflow": (lambda: visibility.estimate_zero_cell_volume(200, 1e4, 3, 3, 1.0, 0),
                            ValueError, "zero_cell averages ray volumes near vol B(1/a) = 0"),
    "zero-cell-infinite": (lambda: visibility.estimate_zero_cell_volume(2, 0.5, 3, 3, 2.0, 0),
                           ValueError, "mean zero-cell volume is infinite"),
    # the grains' mean surface v* overflows: unrefused, math.sinh or the quadrature raises a bare OverflowError
    "rate-overflow-fixed": (lambda: visibility.estimate_visible_volume(2, 3.0, cf.FixedRadius(720.0), 10, 3, None, 2.0, 0),
                            ValueError, "the range rate overflows double precision at grain radius 720"),
    "rate-overflow-huge": (lambda: visibility.sample_visibility_ranges(2, 3.0, cf.FixedRadius(1e308), 10, 2.0, 0),
                           ValueError, "the range rate overflows double precision at grain radius 1e+308"),
    "rate-overflow-uniform": (lambda: visibility.estimate_visible_volume(2, 3.0, cf.UniformRadius(0.0, 800.0), 10, 3, 1.0, 2.0, 0),
                              ValueError, "the range rate overflows double precision at grain radius 800"),
    "rate-overflow-stratified": (lambda: visibility.estimate_visible_volume_stratified(2, 3.0, cf.FixedRadius(720.0), (1.0,)),
                                 ValueError, "the range rate overflows double precision at grain radius 720"),
    # the rate underflows to 0: unrefused, the threshold's (d - 1) gamma / a divides by zero
    "rate-underflow": (lambda: visibility.estimate_visible_volume(2, 3.0, cf.UniformRadius(0.0, 1e-300), 10, 5, None, 2.0, 0),
                       ValueError, "finiteness needs gamma > inf"),
    # a subnormal rate: the threshold read (d - 1) gamma / a = 1, not pi / 2
    "rate-subnormal": (lambda: visibility.estimate_zero_cell_volume(2, 5e-324, 10, 3, 1.0, 0),
                       ValueError, "finiteness needs gamma > 1.5708"),
    # unrefused, numpy's Poisson sampler raises "lam < 0 or lam is NaN" after the generators are built
    "gamma-nan": (lambda: visibility.estimate_visible_volume(2, math.nan, HALF, 3, 3, None, 2.0, 0),
                  ValueError, "gamma must be finite, got nan"),
    # unrefused, a record with closed_form inf and z None
    "near-critical": (lambda: visibility.estimate_visible_volume(2, NEAR_CRITICAL, HALF, 3, 3, None, 2.0, 0),
                      ValueError, "mean visible volume is infinite at range rate a = 1 <= d-1 = 1"),
    # unrefused, an estimate of 0 with z None
    "cutoff-zero": (lambda: visibility.estimate_visible_volume(2, 1.0, HALF, 3, 3, 0.0, 0.0, 0),
                    ValueError, "cutoff must be > 0"),
    "truncate-beyond-cutoff": (lambda: visibility.estimate_visible_volume(2, 1.0, HALF, 3, 3, 2.5, 2.0, 0),
                               ValueError, "truncate_at 2.5 exceeds cutoff 2.0"),
    "grains-near-base": (lambda: visibility.estimate_visible_volume(2, 1e12, HALF, 3, 2, None, 1.0, 0),
                         GUARD, "visvol samples n_reps * gamma * vol B(max radius) grains near the base point = 2405692768198."),
    "many-rays": (lambda: visibility.estimate_visible_volume(2, 3.0, HALF, 3, 10**8, 1.0, 1.0, 0),
                  GUARD, "n_rays = 100000000 rays x 256 obstacles per sweep block, in ray-obstacle pairs = 25600000000"),
    "one-replication": (lambda: visibility.estimate_segment_crossings(2, 1.0, 1.0, 1, 0),
                        ValueError, "needs n_reps >= 2, got 1"),
    "segment-seed": (lambda: visibility.estimate_segment_crossings(2, 1.0, 1.0, 5, -1),
                     ValueError, "seed must be >= 0, got -1"),
    "grain-cap": (lambda: visibility.sample_visibility_ranges(2, 1.0, cf.FixedRadius(1e-300), 5, 2.0, 0),
                  ValueError, "grain radius 1e-300 is too small for the single-ray sweep to cutoff 2"),
    "sweep-depth": (lambda: visibility.sample_zero_cell_ranges(2, 1e-9, 5, 400.0, 0),
                    ValueError, "cutoff 400.0 sweeps to depth 400, beyond the 350"),
    "range-replications": (lambda: visibility.sample_zero_cell_ranges(2, 3.0, 10**12, 2.0, 0),
                           GUARD, "n_reps = 1000000000000 exceeds resource guard 1e+08"),
    "dimension": (lambda: visibility.sample_zero_cell_ranges(342, 1.0, 5, 1.0, 0),
                  ValueError, "the largest supported is d = 341"),
    "band-grains": (lambda: visibility.estimate_visible_volume_stratified(2, 1e9, HALF, (1.0,)),
                    GUARD, "expected grain count of 25000 band experiments = 39082147912031."),
    # unrefused, max() of no radii, round() of a NaN, and a negative radius named as the cutoff
    "radii-empty": (lambda: visibility.estimate_visible_volume_stratified(2, 1.0, HALF, ()),
                    ValueError, "radii must be one or more finite values > 0, got ()"),
    "radii-nan": (lambda: visibility.estimate_visible_volume_stratified(2, 1.0, HALF, (1.0, math.nan)),
                  ValueError, "radii must be one or more finite values > 0, got (1.0, nan)"),
    "radii-negative": (lambda: visibility.estimate_visible_volume_stratified(2, 1.0, HALF, (-0.5,)),
                       ValueError, "radii must be one or more finite values > 0, got (-0.5,)"),
    "band-multiple": (lambda: visibility.estimate_visible_volume_stratified(2, 1.0, HALF, (1.3,)),
                      ValueError, "multiple of band_width 0.5"),
    # unrefused, the first sweep block (1e-6 wide at the least) or the segment's window trips the resource guard
    # after a generator is built
    "first-block-capped": (lambda: visibility.sample_zero_cell_ranges(2, 1e15, 5, 1.0, 0),
                           GUARD, "expected obstacles in the first sweep block, at least 1e-06 wide, per replication of cdf_tessellation = 1273239544."),
    "first-block": (lambda: visibility.estimate_zero_cell_volume(2, 1e15, 5, 3, 1.0, 0),
                    GUARD, "expected obstacles in the first sweep block, at least 1e-06 wide, per replication of zero_cell = 2000000000."),
    "segment-window": (lambda: visibility.estimate_segment_crossings(2, 1e15, 1.0, 5, 0),
                       GUARD, "expected planes within 1 of the base point per replication of segment_crossings = 235040238728760"),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_entry_point_refuses_before_any_generator(name, monkeypatch):
    call, kind, message = PROBES[name]

    def no_generator(*args, **kwargs):
        raise AssertionError("a generator was built before the input was refused")

    for module, attr in ((rng, "streams"), (rng, "stream"), (visibility, "streams")):
        monkeypatch.setattr(module, attr, no_generator)
    with pytest.raises(ValueError, match=re.escape(message)) as refused:
        call()
    assert type(refused.value) is kind


# Closed forms refuse a radius that is not finite by its parameter name: unrefused, ell(2, 0, nan) read 0.0
RADIUS_PROBES = {
    "ell": (lambda x: cf.ell(2, 0, x), "r"),
    "ell-vector": (lambda x: cf.ell(3, 1, [0.5, x]), "r"),
    "truncated_visible_volume": (lambda x: cf.truncated_visible_volume(2, 1.0, HALF, x), "r"),
    "verify_ell_identity": (lambda x: cf.verify_ell_identity(3, 2, 1, x), "r"),
    "steiner-radius": (lambda x: cf.steiner_ball_check(2, x, 0.5), "radius"),
    "steiner-r": (lambda x: cf.steiner_ball_check(2, 1.0, x), "r"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("name", sorted(RADIUS_PROBES))
def test_closed_form_refuses_a_radius_by_name(name, value):
    call, parameter = RADIUS_PROBES[name]
    with pytest.raises(ValueError, match=f"^{parameter} must be finite and >= 0, got"):
        call(value)
