"""Boolean models and Poisson hyperplane processes in hyperbolic space.

Simulation of stationary obstacle processes in the hyperboloid model,
closed-form values for visibility and intersection functionals, and the
Monte Carlo machinery verifying one against the other.
"""

from .closedform import (
    Constants,
    FixedRadius,
    GrainLaw,
    GrainMoments,
    UniformRadius,
    ball_surface,
    ball_volume,
    critical_scaling,
    ell,
    grain_moments,
    intersection_density,
    mean_visible_volume,
    parse_grain_law,
    sinh_exp_integral,
    steiner_ball_check,
    truncated_visible_volume,
    verify_ell_identity,
    visibility_threshold,
    zero_cell_mean_volume,
)
from .harness import ExperimentConfig, KsResult, UsageError, emit, ks_exponential, run
from .intersect import estimate_intersection_density
from .procsim import BooleanModelSample, HyperplaneSample, sample_boolean, sample_hyperplanes
from .rng import stream
from .visibility import (
    EstimateRecord,
    estimate_visible_volume,
    estimate_visible_volume_stratified,
    estimate_zero_cell_volume,
    sample_visibility_ranges,
    sample_zero_cell_ranges,
)

__version__ = "0.1.0"
