import json
import math

import numpy as np
import pytest

from hypervis import closedform as cf
from hypervis import harness, visibility
from hypervis.cli import main
from hypervis.harness import ExperimentConfig, UsageError, ks_exponential
from hypervis.rng import stream


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
    def test_unknown_quantity(self):
        with pytest.raises(UsageError, match="unknown quantity"):
            ExperimentConfig(quantity="nope").validate()

    def test_visvol_below_threshold_names_it(self):
        config = ExperimentConfig(quantity="visvol", gamma=0.5, law=cf.FixedRadius(0.5))
        with pytest.raises(UsageError, match="finiteness needs gamma > 0.9595"):
            config.validate()

    def test_missing_law(self):
        with pytest.raises(UsageError, match="grain law"):
            ExperimentConfig(quantity="cdf_boolean").validate()

    def test_truncate_beyond_cutoff(self):
        config = ExperimentConfig(
            quantity="visvol_truncated", gamma=1.0, law=cf.FixedRadius(0.5), truncate_at=15.0, cutoff=12.0
        )
        with pytest.raises(UsageError, match="exceeds cutoff"):
            config.validate()

    def test_intersection_needs_rwin_and_d2(self):
        with pytest.raises(UsageError, match="rwin"):
            ExperimentConfig(quantity="intersection_density", gamma=1.0, law=cf.FixedRadius(0.5)).validate()
        with pytest.raises(UsageError, match="d = 2"):
            ExperimentConfig(quantity="intersection_density", d=3, gamma=1.0, law=cf.FixedRadius(0.5), r_win=2.0).validate()
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
        law = cf.FixedRadius(0.5)
        for quantity in ("visvol", "visvol_truncated", "zero_cell", "intersection_density"):
            cfg = ExperimentConfig(quantity=quantity, gamma=3.0, law=law, n_reps=1, truncate_at=2.0, r_win=2.0)
            with pytest.raises(UsageError, match="n_reps >= 2"):
                cfg.validate()
        # the stratified estimator takes its standard error across batches, not replications
        ExperimentConfig(quantity="visvol_truncated", gamma=1.0, law=law, n_reps=1, truncate_at=2.0, stratified=True).validate()
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["zero_cell", "--gamma", "3", "--reps", "1", "--rays", "2", "--stratified"], "visvol_truncated only"),
            (["intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", "2", "--reps", "1", "--stratified"],
             "visvol_truncated only"),
            (["visvol_truncated", "--gamma", "1", "--grain", "fixed:0.5", "--truncate", "1.3", "--stratified"],
             "multiple of band_width 0.5"),
            (["visvol_truncated", "--gamma", "1", "--grain", "fixed:0.5", "--truncate", "-1"], "truncate_at must be >= 0"),
            (["zero_cell", "--reps", "10", "--rays", "2"], "needs an intensity (--gamma)"),
            (["zero_cell", "--gamma", "0.5", "--reps", "3", "--rays", "3"], "mean zero-cell volume is infinite"),
            (["zero_cell", "--dim", "12", "--gamma", "3", "--reps", "3", "--rays", "3"], "finiteness needs gamma > 46.77"),
            (["cdf_boolean", "--gamma", "1", "--grain", "fixed:0.5", "--reps", "5", "--cutoff", "0.001"],
             "every range is censored at the cutoff"),
            (["cdf_tessellation", "--gamma", "1", "--reps", "5", "--cutoff", "0.001"], "every range is censored at the cutoff"),
            (["cdf_tessellation", "--gamma", "1e-9", "--reps", "5", "--cutoff", "400"], "beyond the 350"),
            (["visvol", "--dim", "10", "--gamma", "2000", "--grain", "fixed:0.5", "--cutoff", "78"], "depth 78.5, beyond"),
        ],
    )
    def test_misapplied_option_is_usage_error(self, argv, message, capsys):
        assert main(["estimate", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_gamma_required_only_where_used(self, capsys):
        with pytest.raises(UsageError, match="needs an intensity"):
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
            quantity="visvol_truncated",
            gamma=0.8,
            law=cf.FixedRadius(0.5),
            truncate_at=3.0,
            cutoff=4.0,
            seed=1,
            stratified=True,
        )
        rec = harness.run(config)
        assert rec.closed_form == pytest.approx(cf.truncated_visible_volume(2, 0.8, cf.FixedRadius(0.5), 3.0), rel=1e-9)
        assert abs(rec.estimate - rec.closed_form) < 5 * rec.stderr

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
# reported n_reps = 0; it now counts its batches (n_batches = 8 by default).
PINNED_RECORDS = {
    "intersection_density": (
        lambda: harness.run(
            ExperimentConfig(quantity="intersection_density", gamma=1.0, law=cf.FixedRadius(0.5), n_reps=200, r_win=2.0, seed=3)
        ),
        3.2891803993932767, 0.10141563324277762, 3.412276265284901, -1.2137760417759922, 200,
    ),
    "segment_crossings": (
        lambda: visibility.estimate_segment_crossings(2, 1.0, 1.0, 500, 11),
        0.662, 0.036799734250151366, 0.6366197723675813, 0.6896850792425048, 500,
    ),
    "visvol_truncated-stratified": (
        lambda: harness.run(
            ExperimentConfig(
                quantity="visvol_truncated", gamma=0.8, law=cf.FixedRadius(0.5), truncate_at=3.0, cutoff=4.0, seed=1, stratified=True
            )
        ),
        10.548991543590438, 0.019527391052349616, 10.513573623808524, 1.813755851304669, 8,
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


class TestEmit:
    @staticmethod
    def _quick_record(seed=7):
        from hypervis import visibility as vis

        return vis.estimate_visible_volume(2, 2.0, cf.FixedRadius(0.5), 50, 32, 2.0, 3.0, seed)

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
        rec = self._quick_record()
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        harness.emit(rec, "json", jp)
        harness.emit(rec, "csv", cp)
        data = json.loads(jp.read_text())
        header, row = cp.read_text().strip().split("\n")
        assert header.split(",") == list(data.keys())
        assert len(row.split(",")) == len(data)

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
