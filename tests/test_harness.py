import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from hypervis import closedform as cf
from hypervis import harness, procsim, visibility
from hypervis.cli import main
from hypervis.harness import ExperimentConfig, UsageError, ks_exponential
from hypervis.rng import stream

from conftest import assert_same_under_every_derivation, guard_amount_and_limit

# A value of each harness.OPTIONS field without a default but the intensity, given to the quantities that read it
OPTION_VALUES = {"law": cf.FixedRadius(0.5), "truncate_at": 1.0, "r_win": 2.0}


def read(quantity: str, **values) -> dict:
    """The OPTION_VALUES and values of the options that quantity reads, as ExperimentConfig keywords."""
    return {name: v for name, v in {**OPTION_VALUES, **values}.items() if name in harness.QUANTITIES[quantity].reads}


class TestKsExponential:
    def test_exact_samples_pass(self):
        rng = stream(60)
        rate = 1.7
        samples = -np.log(rng.uniform(size=10_000)) / rate
        result = ks_exponential(samples, rate)
        assert result.passed
        assert result.critical_1pct == pytest.approx(1.628 / 100.0)
        assert result.n == 10_000

    def test_wrong_rate_fails(self):
        # Exp(2 rate) against rate: sup gap tends to sup|e^-x - e^-2x| = 0.25
        rng = stream(61)
        rate = 1.0
        samples = -np.log(rng.uniform(size=10_000)) / (2 * rate)
        result = ks_exponential(samples, rate)
        assert not result.passed
        assert result.statistic > 0.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ks_exponential([], 1.0)

    def test_statistic_is_sup_distance(self):
        # hand check on a tiny sample
        samples = np.array([0.5, 1.0])
        rate = 1.0
        cdf = 1 - np.exp(-samples)
        expected = max(0.5 - cdf[0], cdf[0], 1.0 - cdf[1], cdf[1] - 0.5)
        assert ks_exponential(samples, rate).statistic == pytest.approx(expected, abs=1e-15)


class TestConfigValidation:
    def test_rays_bounded_by_sweep_block_pairs(self):
        limit = int(procsim.MAX_EXPECTED_COUNT) // visibility._BLOCK_TARGET
        for quantity in ("visvol", "visvol_truncated", "zero_cell"):
            config = ExperimentConfig(quantity, **read(quantity, gamma=3.0, n_reps=3, n_rays=limit, cutoff=1.0))
            config.validate()
            config.n_rays = limit + 1
            with pytest.raises(UsageError, match="ray-obstacle pairs"):
                config.validate()

    def test_unknown_quantity(self):
        with pytest.raises(UsageError, match="unknown quantity"):
            ExperimentConfig(quantity="nope").validate()

    def test_negative_seed(self):
        with pytest.raises(UsageError, match="seed must be >= 0, got -1"):
            ExperimentConfig(quantity="cdf_tessellation", gamma=1.0, seed=-1).validate()

    def test_visvol_below_threshold_names_it(self):
        config = ExperimentConfig(quantity="visvol", gamma=0.5, law=cf.FixedRadius(0.5))
        with pytest.raises(UsageError, match="finiteness needs gamma > 0.9595"):
            config.validate()

    def test_missing_law(self):
        with pytest.raises(UsageError, match="cdf_boolean needs --grain"):
            ExperimentConfig(quantity="cdf_boolean", gamma=1.0).validate()

    def test_truncate_beyond_cutoff(self):
        config = ExperimentConfig(
            quantity="visvol_truncated", gamma=1.0, law=cf.FixedRadius(0.5), truncate_at=15.0, cutoff=12.0
        )
        with pytest.raises(UsageError, match="exceeds cutoff"):
            config.validate()

    def test_intersection_needs_rwin_and_d2(self):
        with pytest.raises(UsageError, match="rwin"):
            ExperimentConfig(quantity="intersection_density", gamma=1.0, law=cf.FixedRadius(0.5)).validate()
        # the planar window reads no dimension, so --dim is refused like any option a quantity does not read
        with pytest.raises(UsageError, match="intersection_density does not read --dim"):
            ExperimentConfig(quantity="intersection_density", d=2, gamma=1.0, law=cf.FixedRadius(0.5), r_win=2.0).validate()
        for r_win in (0.0, -1.0):
            with pytest.raises(UsageError, match="rwin must be > 0"):
                ExperimentConfig(quantity="intersection_density", gamma=1.0, law=cf.FixedRadius(0.5), r_win=r_win).validate()

    @pytest.mark.parametrize(
        "argv",
        [
            ["cdf_boolean", "--gamma", "nan", "--grain", "fixed:0.5"],
            ["cdf_boolean", "--gamma", "inf", "--grain", "fixed:0.5"],
            ["cdf_tessellation", "--gamma", "1.0", "--cutoff", "nan"],
            ["cdf_tessellation", "--gamma", "1.0", "--cutoff", "inf"],
            ["visvol_truncated", "--gamma", "1.0", "--grain", "fixed:0.5", "--truncate", "nan"],
            ["intersection_density", "--gamma", "1.0", "--grain", "fixed:0.5", "--rwin", "inf"],
        ],
    )
    def test_non_finite_input_is_usage_error(self, argv, capsys):
        assert main(["estimate", *argv, "--reps", "10"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_one_replication_refused_unless_stratified(self):
        for quantity in ("visvol", "visvol_truncated", "zero_cell", "intersection_density"):
            cfg = ExperimentConfig(quantity, **read(quantity, gamma=3.0, n_reps=1))
            with pytest.raises(UsageError, match="n_reps >= 2"):
                cfg.validate()
        # the stratified estimator takes its standard error across batches, so it reads no replication count
        ExperimentConfig("visvol_stratified", **read("visvol_stratified", gamma=1.0)).validate()
        with pytest.raises(UsageError, match="visvol_stratified does not read --reps"):
            ExperimentConfig("visvol_stratified", **read("visvol_stratified", gamma=1.0), n_reps=1).validate()
        # a KS test of one range is still a test
        ExperimentConfig(quantity="cdf_tessellation", gamma=2.0, n_reps=1).validate()

    @pytest.mark.parametrize(
        "argv",
        [
            ["zero_cell", "--gamma", "3", "--rays", "2"],
            ["visvol", "--gamma", "3", "--grain", "fixed:0.5", "--rays", "2"],
            ["visvol_truncated", "--gamma", "1", "--grain", "fixed:0.5", "--truncate", "2", "--rays", "2"],
            ["intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", "2"],
        ],
    )
    def test_one_replication_is_usage_error(self, argv, capsys):
        # a standard error across one replication is NaN, which is not even valid JSON
        assert main(["estimate", *argv, "--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert "needs n_reps >= 2" in captured.err and captured.out == ""

    # Each id is fixed text, first taken from its message: editing a refusal's wording keeps its test's id.
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["visvol_stratified", "--gamma", "1", "--grain", "fixed:0.5", "--truncate", "1.3"],
                         "multiple of band_width 0.5", id="argv2-multiple of band_width 0.5"),
            pytest.param(["visvol_truncated", "--gamma", "1", "--grain", "fixed:0.5", "--truncate", "-1"],
                         "truncate_at must be >= 0", id="argv3-truncate_at must be >= 0"),
            pytest.param(["zero_cell", "--reps", "10", "--rays", "2"],
                         "zero_cell needs --gamma", id="argv4-needs an intensity (--gamma)"),
            pytest.param(["zero_cell", "--gamma", "0.5", "--reps", "3", "--rays", "3"],
                         "mean zero-cell volume is infinite", id="argv5-mean zero-cell volume is infinite"),
            pytest.param(["zero_cell", "--dim", "12", "--gamma", "3", "--reps", "3", "--rays", "3"],
                         "finiteness needs gamma > 46.77", id="argv6-finiteness needs gamma > 46.77"),
            pytest.param(["cdf_boolean", "--gamma", "1", "--grain", "fixed:0.5", "--reps", "5", "--cutoff", "0.001"],
                         "every range is censored at the cutoff", id="argv7-every range is censored at the cutoff"),
            pytest.param(["cdf_tessellation", "--gamma", "1", "--reps", "5", "--cutoff", "0.001"],
                         "every range is censored at the cutoff", id="argv8-every range is censored at the cutoff"),
            pytest.param(["cdf_tessellation", "--gamma", "1e-9", "--reps", "5", "--cutoff", "400"],
                         "beyond the 350", id="argv9-beyond the 350"),
            pytest.param(["visvol", "--dim", "10", "--gamma", "2000", "--grain", "fixed:0.5", "--cutoff", "78"],
                         "depth 78.5, beyond", id="argv10-depth 78.5, beyond"),
            pytest.param(["zero_cell", "--gamma", "1", "--reps", "5", "--dim", "342", "--cutoff", "1"],
                         "the largest supported is d = 341", id="argv11-the largest supported is d = 341"),
            pytest.param(["cdf_tessellation", "--gamma", "3", "--reps", str(10**12), "--cutoff", "2"],
                         "n_reps = 1000000000000 exceeds resource guard 1e+08",
                         id="argv12-n_reps = 1000000000000 exceeds resource guard 1e+08"),
            pytest.param(["zero_cell", "--gamma", "3", "--rays", str(10**12), "--cutoff", "2"],
                         "n_rays = 1000000000000 rays x 256 obstacles per sweep block, in ray-obstacle pairs = 256000000000000 exceeds",
                         id="argv13-n_rays = 1000000000000 rays x 256 obstacles per sweep block, in ray-obstacle pairs = 256000000000000 exceeds"),
            pytest.param(["visvol_truncated", "--gamma", "1", "--grain", "fixed:0.5", "--truncate", "2", "--rays", str(10**12)],
                         "n_rays = 1000000000000 rays x 256 obstacles per sweep block, in ray-obstacle pairs = 256000000000000 exceeds",
                         id="argv14-n_rays = 1000000000000 rays x 256 obstacles per sweep block, in ray-obstacle pairs = 256000000000000 exceeds"),
            # each replication's first sweep block would trip the sampler's resource guard; check_sweep refuses it
            pytest.param(["cdf_tessellation", "--gamma", "1e15", "--reps", "5", "--cutoff", "1"],
                         "exceeds resource guard 1e+08", id="argv15-exceeds resource guard 1e+08"),
            pytest.param(["cdf_tessellation", "--gamma", "1", "--dim", "341", "--reps", "5", "--cutoff", "1"],
                         "exceeds resource guard 1e+08", id="argv16-exceeds resource guard 1e+08"),
            # every replication samples the grains centred within the largest grain radius of the base point
            pytest.param(["visvol", "--gamma", "1e12", "--grain", "fixed:0.5", "--reps", "3", "--rays", "2", "--cutoff", "1"],
                         "visvol samples n_reps * gamma * vol B(max radius) grains near the base point = 2405692768198.",
                         id="argv17-visvol samples n_reps * gamma * vol B(max radius) grains near the base point = 2405692768198."),
            pytest.param(["cdf_boolean", "--gamma", "1e7", "--grain", "fixed:0.5", "--reps", "20", "--cutoff", "1"],
                         "cdf_boolean samples n_reps * gamma * vol B(max radius) grains near the base point = 160379517.8",
                         id="argv18-cdf_boolean samples n_reps * gamma * vol B(max radius) grains near the base point = 160379517.8"),
            pytest.param(["visvol_truncated", "--gamma", "1e9", "--grain", "fixed:0.5", "--reps", "3", "--truncate", "1", "--cutoff", "1"],
                         "visvol_truncated samples n_reps * gamma * vol B(max radius) grains near the base point = 2405692768.1",
                         id="argv19-visvol_truncated samples n_reps * gamma * vol B(max radius) grains near the base point = 2405692768.1"),
            # the many-ray sweep holds a rays x obstacles matrix per block; refused before the rays are drawn
            pytest.param(["visvol", "--gamma", "3", "--grain", "fixed:0.5", "--reps", "3", "--rays", "100000000", "--cutoff", "1"],
                         "n_rays = 100000000 rays x 256 obstacles per sweep block, in ray-obstacle pairs = 25600000000 exceeds",
                         id="argv20-n_rays = 100000000 rays x 256 obstacles per sweep block, in ray-obstacle pairs = 25600000000 exceeds"),
            # the stratified estimator's band experiments trip the sampler's resource guard
            pytest.param(["visvol_stratified", "--gamma", "1e9", "--grain", "fixed:0.5", "--truncate", "1"],
                         "band experiments = 39082147912031.", id="argv21-band experiments = 39082147912031."),
            # one realization's Gram matrix would hold about 1e12 grain pairs; refused before any draw
            pytest.param(["intersection_density", "--gamma", "10000", "--grain", "fixed:0.5", "--rwin", "3", "--reps", "2"],
                         "expected grain pairs per realization = 957402428663.1",
                         id="argv22-expected grain pairs per realization = 957402428663.1"),
            # the stratified estimator's band experiments are bounded by the same sweep depth
            pytest.param(["visvol_stratified", "--gamma", "1", "--grain", "fixed:0.5", "--truncate", "1000"],
                         "sweeps to depth 1000.5, beyond the 350", id="argv23-sweeps to depth 1000.5, beyond the 350"),
            # a window whose area is 0 in double precision would give a NaN estimate, which is not valid JSON
            pytest.param(["intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", "1e-300", "--reps", "2"],
                         "rwin must be > 0 with a window area > 0, got 1e-300",
                         id="argv24-rwin must be > 0 with a window area > 0, got 1e-300"),
            # the direction cap a grain this small reaches the ray from has share 0, so the capped sweep cannot draw it
            pytest.param(["cdf_boolean", "--gamma", "1", "--grain", "fixed:1e-300", "--reps", "5", "--cutoff", "2"],
                         "grain radius 1e-300 is too small for the single-ray sweep to cutoff 2",
                         id="argv25-grain radius 1e-300 is too small for the single-ray sweep to cutoff 2"),
            pytest.param(["cdf_boolean", "--gamma", "1", "--grain", "uniform:0,1e-200", "--reps", "5", "--cutoff", "2"],
                         "grain radius 1e-200 is too small for the single-ray sweep to cutoff 2",
                         id="argv26-grain radius 1e-200 is too small for the single-ray sweep to cutoff 2"),
            # ranges of mean 1/a = 1.8e-3 in d = 200 have volumes that underflow: the estimate would read 0
            pytest.param(["zero_cell", "--dim", "200", "--gamma", "1e4", "--reps", "3", "--rays", "3", "--cutoff", "1"],
                         "zero_cell averages ray volumes near vol B(1/a) = 0 at mean range 1/a = 0.00177024, which underflows",
                         id="argv27-zero_cell averages ray volumes near vol B(1/a) = 0 at mean range 1/a = 0.00177024, which underflows"),
            # grains this small cross with an intersection density that underflows: the estimate would read 0
            pytest.param(["intersection_density", "--gamma", "1", "--grain", "fixed:1e-300", "--rwin", "1", "--reps", "3"],
                         "the intersection density kappa_2 (v* gamma)^2 = 0 underflows double precision",
                         id="argv28-the intersection density kappa_2 (v* gamma)^2 = 0 underflows double precision"),
            pytest.param(["intersection_density", "--gamma", "1e200", "--grain", "fixed:0.5", "--rwin", "1", "--reps", "3"],
                         "the intersection density kappa_2 (v* gamma)^2 overflows double precision",
                         id="argv29-the intersection density kappa_2 (v* gamma)^2 overflows double precision"),
            # the grains' mean surface overflows: math.sinh or the quadrature raised a bare OverflowError
            pytest.param(["visvol", "--gamma", "3", "--grain", "fixed:720", "--reps", "10"],
                         "the range rate overflows double precision at grain radius 720", id="argv30-the range rate overflows double precision at grain radius 720"),
            pytest.param(["visvol_truncated", "--gamma", "3", "--grain", "fixed:1e308", "--reps", "10", "--truncate", "1"],
                         "the range rate overflows double precision at grain radius 1e+308", id="argv31-the range rate overflows double precision at grain radius 1e+308"),
            pytest.param(["cdf_boolean", "--gamma", "3", "--grain", "uniform:0,800", "--reps", "10"],
                         "the range rate overflows double precision at grain radius 800", id="argv32-the range rate overflows double precision at grain radius 800"),
            pytest.param(["visvol_stratified", "--gamma", "3", "--grain", "fixed:720", "--truncate", "1"],
                         "the range rate overflows double precision at grain radius 720", id="argv33-the range rate overflows double precision at grain radius 720"),
            # the threshold is (d - 1) / a at gamma = 1: a rate that underflows divided by zero, a subnormal one read 1
            pytest.param(["visvol", "--gamma", "3", "--grain", "uniform:0,1e-300", "--reps", "10", "--rays", "5", "--cutoff", "2"],
                         "finiteness needs gamma > inf", id="argv34-finiteness needs gamma > inf"),
            pytest.param(["zero_cell", "--gamma", "5e-324", "--reps", "10", "--rays", "3", "--cutoff", "1"],
                         "finiteness needs gamma > 1.5708", id="argv35-finiteness needs gamma > 1.5708"),
        ],
    )
    def test_misapplied_option_is_usage_error(self, argv, message, capsys):
        assert main(["estimate", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    # Each quantity is given a value of every option it reads but one, or of every option it reads and one more.
    # An option it does not read is refused, and one without a default that it reads is needed, before any draw,
    # so that no option is silently ignored; one left out that has a default takes it.
    VALUES = {"d": "2", "gamma": "3", "law": "fixed:0.5", "n_reps": "3", "n_rays": "2", "cutoff": "2",
              "truncate_at": "1", "r_win": "2", "seed": "5"}

    @pytest.mark.parametrize(
        "quantity, option",
        [(quantity, option) for quantity in harness.QUANTITIES for option in harness.OPTIONS],
    )
    def test_each_option_is_needed_or_refused(self, quantity, option, capsys, monkeypatch):
        entry, runs = harness.QUANTITIES[quantity], []
        stub = harness.FormulaCheckResult(0.0, True, {})  # the run is replaced: only validation is under test
        monkeypatch.setitem(harness.QUANTITIES, quantity, dataclasses.replace(entry, runner=lambda c: runs.append(c) or stub))
        given = [name for name in entry.reads if name != option] + ([] if option in entry.reads else [option])
        argv = ["estimate", quantity] + [arg for name in given for arg in (harness.OPTIONS[name].flag, self.VALUES[name])]
        flag, default = harness.OPTIONS[option].flag, harness.OPTIONS[option].default
        if option in entry.reads and default is not None:
            assert main(argv) == 0
            assert [getattr(config, option) for config in runs] == [default]
            return
        assert main(argv) == 2
        captured = capsys.readouterr()
        expected = f"{quantity} needs {flag}" if option in entry.reads else f"{quantity} does not read {flag}"
        assert expected in captured.err and captured.out == "" and runs == []

    def test_window_overflow_prints_only_the_usage_line(self, capsys):
        # the window's area overflows to inf; no RuntimeWarning may precede the resource guard's refusal
        argv = ["intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", "1000", "--reps", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["usage error: expected grain pairs per realization = inf exceeds resource guard 1e+08"]
        assert captured.out == ""

    def test_many_rays_at_the_edge(self, capsys):
        # 390,625 rays x 256 obstacles per sweep block hold the resource guard; one ray more exceeds it
        ExperimentConfig(quantity="zero_cell", gamma=3.0, n_reps=3, n_rays=390_625, cutoff=1.0).validate()
        assert main(["estimate", "zero_cell", "--gamma", "3", "--rays", "390626", "--cutoff", "1", "--reps", "3"]) == 2
        amount, limit = guard_amount_and_limit(capsys.readouterr().err)
        assert amount == 390_626 * 256 > limit == procsim.MAX_EXPECTED_COUNT  # to 3 significant digits both read 1e+08

    def test_zero_cell_beyond_the_factorial(self, capsys):
        # the closed form holds (d-1)!, no float from d = 172 on; an estimate there is refused, since its
        # ray volumes underflow (test_misapplied_option_is_usage_error), but the formula is still a float
        assert main(["formula", "zero_cell_mean_volume", "d=200", "gamma=1e4"]) == 0
        assert 0.0 < json.loads(capsys.readouterr().out)["value"] < math.inf

    def test_gamma_required_only_where_used(self, capsys):
        with pytest.raises(UsageError, match="cdf_tessellation needs --gamma"):
            ExperimentConfig(quantity="cdf_tessellation", gamma=None).validate()
        ExperimentConfig(quantity="formula_check", gamma=None).validate()
        assert main(["estimate", "formula_check"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


class TestRun:
    def test_cdf_boolean_censored_at_short_cutoff(self):
        # about a fifth of the ranges are censored at 1.5; the KS law must be truncated there
        config = ExperimentConfig(quantity="cdf_boolean", gamma=1.0, law=cf.FixedRadius(0.5), cutoff=1.5, seed=0)
        assert harness.run(config).passed

    def test_cdf_boolean_pinned_seed(self):
        config = ExperimentConfig(
            quantity="cdf_boolean", d=2, gamma=1.5, law=cf.FixedRadius(0.5), n_reps=2000, cutoff=10.0, seed=42
        )
        result = harness.run(config)
        assert isinstance(result, harness.KsResult)
        assert result.passed

    def test_cdf_tessellation(self):
        config = ExperimentConfig(quantity="cdf_tessellation", d=2, gamma=2.0, n_reps=2000, cutoff=10.0, seed=42)
        assert harness.run(config).passed

    def test_visvol_truncated_dispatch(self):
        config = ExperimentConfig(
            quantity="visvol_truncated",
            gamma=0.8,
            law=cf.FixedRadius(0.5),
            n_reps=200,
            n_rays=64,
            cutoff=4.0,
            truncate_at=3.0,
            seed=1,
        )
        rec = harness.run(config)
        assert rec.quantity == "visvol_truncated"
        assert abs(rec.z_score) < 4.0

    def test_visvol_truncated_stratified_dispatch(self):
        config = ExperimentConfig(
            quantity="visvol_stratified",
            gamma=0.8,
            law=cf.FixedRadius(0.5),
            truncate_at=3.0,
            seed=1,
        )
        rec = harness.run(config)
        assert rec.closed_form == pytest.approx(cf.truncated_visible_volume(2, 0.8, cf.FixedRadius(0.5), 3.0), rel=1e-9)
        assert abs(rec.estimate - rec.closed_form) < 5 * rec.stderr

    def test_stratified_record_is_the_estimators_first(self):
        config = ExperimentConfig(
            quantity="visvol_stratified", d=3, gamma=0.9, law=cf.FixedRadius(0.5), truncate_at=1.0, seed=6
        )
        first = visibility.estimate_visible_volume_stratified(3, 0.9, cf.FixedRadius(0.5), (1.0, 2.0), seed=6)[0]
        assert dataclasses.replace(harness.run(config), runtime_ms=0.0) == dataclasses.replace(first, runtime_ms=0.0)

    @pytest.mark.parametrize("quantity", sorted(harness.QUANTITIES))
    def test_record_names_its_quantity(self, quantity):
        config = ExperimentConfig(quantity, **read(quantity, gamma=3.0, n_reps=3, n_rays=2, cutoff=1.0, seed=5))
        result = harness.run(config)
        assert not isinstance(result, visibility.EstimateRecord) or result.quantity == config.quantity

    def test_zero_cell_dispatch(self):
        config = ExperimentConfig(quantity="zero_cell", gamma=3.0, n_reps=200, n_rays=64, cutoff=8.0, seed=2)
        rec = harness.run(config)
        assert rec.quantity == "zero_cell"

    def test_intersection_dispatch(self):
        config = ExperimentConfig(
            quantity="intersection_density", gamma=1.0, law=cf.FixedRadius(0.5), r_win=2.0, n_reps=200, seed=3
        )
        rec = harness.run(config)
        assert rec.quantity == "intersection_density"

    def test_formula_check_passes(self):
        result = harness.run(ExperimentConfig(quantity="formula_check"))
        assert isinstance(result, harness.FormulaCheckResult)
        assert result.passed
        assert result.max_residual < 1e-8
        assert len(result.checks) == 21

    def test_visvol_refusal_via_run(self):
        config = ExperimentConfig(quantity="visvol", gamma=0.9, law=cf.FixedRadius(0.5), n_reps=10, n_rays=10)
        with pytest.raises(UsageError, match="infinite"):
            harness.run(config)


# Records of the implementation before the one record builder, at fixed seeds:
# (call, estimate, stderr, closed form, z, n_reps). The stratified record then
# reported n_reps = 0; it now counts its batches (visibility.STRATIFIED_BATCHES = 8), and its band experiments
# are one labelled Poisson draw per band (procsim.band_first_touches). The segment crossings draw each plane's
# offset >= 0 and direction through procsim.sample_hyperplane_annulus, with no sign.
PINNED_RECORDS = {
    "intersection_density": (
        lambda: harness.run(
            ExperimentConfig(quantity="intersection_density", gamma=1.0, law=cf.FixedRadius(0.5), n_reps=200, r_win=2.0, seed=3)
        ),
        3.2891803993932767, 0.10141563324277762, 3.412276265284901, -1.2137760417759922, 200,
    ),
    "segment_crossings": (
        lambda: visibility.estimate_segment_crossings(2, 1.0, 1.0, 500, 11),
        0.626, 0.035081468310743144, 0.6366197723675813, -0.302717442540144, 500,
    ),
    "visvol_truncated-stratified": (
        lambda: harness.run(
            ExperimentConfig(
                quantity="visvol_stratified", gamma=0.8, law=cf.FixedRadius(0.5), truncate_at=3.0, seed=1
            )
        ),
        10.474861841912357, 0.019362784414100873, 10.513573623808524, -1.9992879674875137, 8,
    ),
}


class TestPinnedRecords:
    @pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
    def test_record(self, name):
        call, estimate, stderr, closed, z, n_reps = PINNED_RECORDS[name]
        rec = call()
        assert rec.estimate == pytest.approx(estimate, rel=1e-12)
        assert rec.stderr == pytest.approx(stderr, rel=1e-12)
        assert rec.closed_form == pytest.approx(closed, rel=1e-12)
        assert rec.z_score == pytest.approx(z, rel=1e-9)
        assert rec.n_reps == n_reps

    @pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
    def test_independent_of_stream_derivation(self, name, monkeypatch):
        assert_same_under_every_derivation(PINNED_RECORDS[name][0], monkeypatch)


class TestEmit:
    @staticmethod
    def _quick_record(seed=7, law=cf.FixedRadius(0.5)):
        from hypervis import visibility as vis

        return vis.estimate_visible_volume(2, 2.0, law, 50, 32, 2.0, 3.0, seed)

    def test_json_deterministic_modulo_runtime(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        harness.emit(self._quick_record(), "json", p1)
        harness.emit(self._quick_record(), "json", p2)
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("runtime_ms")
        d2.pop("runtime_ms")
        assert d1 == d2

    def test_field_order(self, tmp_path):
        path = tmp_path / "r.json"
        harness.emit(self._quick_record(), "json", path)
        keys = list(json.loads(path.read_text()).keys())
        assert keys == list(harness.RECORD_FIELDS)

    def test_csv_mirrors_json(self, tmp_path):
        # a uniform law's grain_params "0.2,0.6" holds a comma, which the csv file quotes
        for law in (cf.FixedRadius(0.5), cf.UniformRadius(0.2, 0.6)):
            rec = self._quick_record(law=law)
            jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
            harness.emit(rec, "json", jp)
            harness.emit(rec, "csv", cp)
            data = json.loads(jp.read_text())
            with open(cp, newline="") as fh:
                header, row = csv.reader(fh)
            assert header == list(data.keys())
            assert row == ["" if v is None else str(v) for v in data.values()], law

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "r.json"
        harness.emit(self._quick_record(), "json", path)
        data = json.loads(path.read_text())
        assert data["estimate"] == float(f"{data['estimate']:.12g}")

    def test_ks_emission(self, tmp_path):
        result = harness.KsResult(statistic=0.01, n=100, critical_1pct=0.1628, passed=True)
        path = tmp_path / "ks.json"
        harness.emit(result, "json", path)
        data = json.loads(path.read_text())
        assert data["pass"] is True
        assert data["quantity"] == "ks"

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError, match="json or csv"):
            harness.emit(self._quick_record(), "xml", tmp_path / "r.xml")
