import json
import math

import numpy as np
import pytest

from hypervis import closedform as cf
from hypervis import harness
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
