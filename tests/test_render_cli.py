import json
import math
import os
import re
import subprocess
import sys

import pytest

from hypervis import acceptance, visibility
from hypervis import closedform as cf
from hypervis.cli import main


class TestCli:
    def test_constants(self, capsys):
        assert main(["constants", "--dim", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["omega_d"] == pytest.approx(4 * math.pi)

    def test_formula(self, capsys):
        assert main(["formula", "ball_volume", "d=2", "r=1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(2 * math.pi * (math.cosh(1) - 1))

    def test_formula_grain(self, capsys):
        assert main(["formula", "mean_visible_volume", "d=2", "gamma=1.5", "grain=fixed:0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(4.351649658525523, rel=1e-10)

    def test_formula_unknown(self, capsys):
        assert main(["formula", "nope"]) == 2
        assert "truncated_visible_volume" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["truncated_visible_volume", "d=2", "gamma=1", "grain=fixed:0.5", "r=2", "bogus=3"], "unknown parameter 'bogus'"),
            (["ball_volume", "d=2"], "missing parameter 'r'"),
            (["ball_volume", "d2"], "malformed parameter 'd2'"),
            (["ball_volume", "d=two", "r=1"], "malformed parameter d='two'"),
            (["ball_volume", "d=342", "r=1"], "the largest supported is d = 341"),
            (["ball_volume", "d=341", "r=100"], "ball_volume overflows double precision"),
            (["ball_surface", "d=200", "r=100"], "ball_surface overflows double precision"),
            (["ell", "d=2", "j=0", "r=800"], "ell overflows double precision"),
            (["ell", "d=2", "j=0", "r=nan"], "r must be finite and >= 0, got nan"),
            (["truncated_visible_volume", "d=2", "gamma=1", "grain=fixed:0.5", "r=nan"], "r must be finite and >= 0"),
            (["verify_ell_identity", "d=3", "k=2", "j=1", "r=inf"], "r must be finite and >= 0, got inf"),
            (["steiner_ball_check", "d=2", "radius=nan", "r=1"], "radius must be finite and >= 0, got nan"),
            (["ball_volume", "d=2", "r=1000"], "ball_volume overflows double precision"),
            # a nan argument fails each range test by name, where it once read as an overflow
            (["visibility_threshold", "d=2", "radius=nan"], "grain radius must be > 0, got nan"),
            (["critical_scaling", "d=2", "delta=nan"], "delta must be > 0, got nan"),
            (["ball_surface", "d=2", "r=nan"], "radius must be >= 0, got nan"),
            (["ball_volume", "d=2", "r=nan"], "radius must be >= 0"),
            (["sinh_exp_integral", "d=2", "a=nan"], "rate a must be a number, got nan"),
            (["mean_visible_volume", "d=2", "gamma=nan", "grain=fixed:0.5"], "intensity must be > 0, got nan"),
            (["zero_cell_mean_volume", "d=2", "gamma=nan"], "intensity must be > 0, got nan"),
            (["intersection_density", "d=2", "gamma=nan", "grain=fixed:0.5"], "intensity must be >= 0, got nan"),
            (["truncated_visible_volume", "d=2", "gamma=nan", "grain=fixed:0.5", "r=2"], "intensity must be >= 0, got nan"),
            # a negative intensity once gave 83.29 here, more than the ball's volume of 17.4
            (["truncated_visible_volume", "d=2", "gamma=-1", "grain=fixed:0.5", "r=2"], "intensity must be >= 0, got -1.0"),
            # a finite radius whose volume overflows, unlike r = inf (test_formula_of_an_infinite_radius_is_infinite)
            (["ball_volume", "d=3", "r=400"], "ball_volume overflows double precision"),
            # the grain moments do not depend on the intensity
            (["grain_moments", "d=2", "gamma=-1", "grain=fixed:0.5"], "unknown parameter 'gamma': grain_moments takes d, grain"),
            # d is a dimension 2..341, as for constants --dim and estimate: d = 1 once ran, and the threshold read 0.0
            (["ball_volume", "d=1", "r=1"], "malformed parameter d='1': dimension must be >= 2"),
            (["grain_moments", "d=1", "grain=fixed:1"], "malformed parameter d='1': dimension must be >= 2"),
            (["zero_cell_mean_volume", "d=1", "gamma=1"], "malformed parameter d='1': dimension must be >= 2"),
            (["visibility_threshold", "d=1", "radius=0.5"], "malformed parameter d='1': dimension must be >= 2"),
            # a grain of infinite radius covers the base point: refused by name, where the quadrature once refused a
            # nan node ("radius must be >= 0") and mean_visible_volume printed 0.0 for fixed:inf
            (["grain_moments", "d=2", "grain=uniform:0,inf"], "uniform radius law needs finite 0 <= lo < hi"),
            (["mean_visible_volume", "d=2", "gamma=1", "grain=uniform:0,inf"], "uniform radius law needs finite"),
            (["grain_moments", "d=2", "grain=fixed:inf"], "fixed grain radius must be finite and > 0, got inf"),
            (["mean_visible_volume", "d=2", "gamma=1", "grain=fixed:inf"], "fixed grain radius must be finite"),
            # sinh(radius)^(d-1) underflows to 0: the threshold once ended in a ZeroDivisionError traceback
            (["visibility_threshold", "d=3", "radius=1e-300"], "visibility_threshold overflows double precision"),
            (["visibility_threshold", "d=4", "radius=1e-200"], "visibility_threshold overflows double precision"),
        ],
    )
    def test_formula_bad_parameter(self, argv, message, capsys):
        assert main(["formula", *argv]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    def test_formula_infinite_value_is_kept(self, capsys):
        # below its threshold the mean visible volume is infinite, not an overflow
        assert main(["formula", "mean_visible_volume", "d=2", "gamma=0.5", "grain=fixed:0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == math.inf

    @pytest.mark.parametrize("name, dim", [("ball_volume", 3), ("ball_surface", 2)])
    def test_formula_of_an_infinite_radius_is_infinite(self, name, dim, capsys):
        # an infinite ball has infinite volume and surface, not an overflow
        assert main(["formula", name, f"d={dim}", "r=inf"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == math.inf

    @pytest.mark.parametrize(
        "argv",
        [
            ["sinh_exp_integral", "d=2", "a=inf"],
            ["zero_cell_mean_volume", "d=2", "gamma=inf"],
            ["mean_visible_volume", "d=2", "gamma=inf", "grain=fixed:0.5"],
            ["truncated_visible_volume", "d=2", "gamma=inf", "grain=fixed:0.5", "r=2"],
        ],
        ids=["sinh_exp_integral", "zero_cell_mean_volume", "mean_visible_volume", "truncated_visible_volume"],
    )
    def test_formula_at_an_infinite_rate_is_zero(self, argv, capsys):
        # nothing is visible through an infinitely dense process: the limit 0.0, with no warning on stderr
        assert main(["formula", *argv]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["value"] == 0.0 and err == ""

    def test_formula_gamma_default(self, capsys):
        assert main(["formula", "mean_visible_volume", "d=2", "grain=fixed:0.5"]) == 0
        default = json.loads(capsys.readouterr().out)["value"]
        assert main(["formula", "mean_visible_volume", "d=2", "gamma=1", "grain=fixed:0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == default
        assert main(["formula", "truncated_visible_volume", "d=2", "gamma=1", "grain=fixed:0.5", "r=2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(cf.truncated_visible_volume(2, 1.0, cf.FixedRadius(0.5), 2.0), rel=1e-15)

    def test_estimate_to_file(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        code = main(
            [
                "estimate",
                "visvol_truncated",
                "--gamma", "0.8",
                "--grain", "fixed:0.5",
                "--reps", "100",
                "--rays", "32",
                "--cutoff", "3.0",
                "--truncate", "2.0",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["quantity"] == "visvol_truncated"
        assert data["grain_kind"] == "fixed"

    @pytest.mark.parametrize("name, reason", [("missing/rec.json", "No such file or directory"), (".", "Is a directory")])
    def test_estimate_to_an_unwritable_path(self, name, reason, tmp_path, capsys, monkeypatch):
        # the path is probed before the run, so no replication is swept
        def no_sweep(*args, **kwargs):
            raise AssertionError("a replication was swept before the path was found unwritable")

        monkeypatch.setattr(visibility, "_sweep", no_sweep)
        out = tmp_path / name
        argv = ["estimate", "zero_cell", "--gamma", "3", "--reps", "3", "--rays", "3", "--cutoff", "1", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: cannot write {out}: {reason}\n"

    def test_estimate_that_fails_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        out, kept = tmp_path / "rec.json", tmp_path / "kept.json"
        kept.write_text("earlier\n")
        refused = ["estimate", "zero_cell", "--gamma", "0.5", "--reps", "3", "--rays", "3", "--cutoff", "1"]
        for path in (out, kept):
            assert main([*refused, "--out", str(path)]) == 2
        assert "usage error: mean zero-cell volume is infinite" in capsys.readouterr().err

        def fails(*args, **kwargs):
            raise RuntimeError("failed mid-run")

        monkeypatch.setattr(visibility, "_sweep", fails)
        argv = ["estimate", "zero_cell", "--gamma", "3", "--reps", "3", "--rays", "3", "--cutoff", "1"]
        for path in (out, kept):
            with pytest.raises(RuntimeError, match="failed mid-run"):
                main([*argv, "--out", str(path)])
        assert not out.exists() and kept.read_text() == "earlier\n"

    def test_estimate_usage_error(self, capsys):
        code = main(["estimate", "visvol", "--gamma", "0.5", "--grain", "fixed:0.5", "--reps", "10"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_verify_subset(self, capsys):
        assert main(["verify", "--only", "3,7,10"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_fresh_seed_is_printed_and_reruns(self, capsys):
        assert main(["verify", "--fresh-seed", "--only", "1,11"]) == 0
        out = capsys.readouterr().out.splitlines()
        last = re.fullmatch(r"reported 2 criteria with the fresh master seed (\d+) \(not asserted\); re-run them with --seed (\d+)",
                            out[-1])
        seed = last[1]
        assert last[2] == seed
        assert main(["verify", "--seed", seed, "--only", "1,11"]) == 0
        rerun = capsys.readouterr().out.splitlines()
        assert rerun[-1] == f"reported 2 criteria with the master seed {seed} (not asserted)"
        assert [line.split(") ", 1)[1] for line in out[:-1]] == [line.split(") ", 1)[1] for line in rerun[:-1]]

    def test_seed_reports_without_failing(self, monkeypatch, capsys):
        failing = acceptance.CriterionResult(3, "finiteness threshold", False, "made to fail", 0.0)
        monkeypatch.setitem(acceptance.CRITERIA, 3, lambda seed: failing)
        assert main(["verify", "--only", "3"]) == 1
        seed = acceptance.DEFAULT_SEED
        assert main(["verify", "--seed", str(seed), "--only", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"reported 1 criteria with the master seed {seed} (not asserted)"

    def test_only_twelve_names_the_full_run(self, capsys):
        # criterion 12 bounds the |z| of every other criterion, so a subset cannot run it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--only", "12"])
        assert exc.value.code == 2
        assert "unknown criteria [12]; known: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], and 12 (the family-wise z bound), " \
               "which runs only on a full run" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--only", "abc"],
            ["verify", "--only", "13"],
            ["estimate", "visvol", "--gamma", "2", "--grain", "bogus"],
            ["estimate", "visvol", "--gamma", "2", "--grain", "fixed:-1"],
            ["constants", "--dim", "0"],
            ["constants", "--dim", "1"],
            ["constants", "--dim", "two"],
            ["estimate", "intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", "abc"],
            ["estimate", "intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin"],
            ["estimate", "cdf_boolean", "--gamma", "1", "--grain", "fixed:0.5", "--reps", "5", "--seed", "-1"],
            ["estimate", "zero_cell", "--gamma", "3", "--reps", "3", "--rays", "3", "--seed", "-5"],
            ["constants", "--dim", "342"],
            ["verify", "--seed", "-1"],
            ["verify", "--seed", "7", "--fresh-seed"],
        ],
    )
    def test_invalid_argument_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"hypervis {argv[0]}: error: argument" in capsys.readouterr().err

    # a grain of infinite radius is refused where --grain is parsed; the grain moments' quadrature once refused a
    # nan node of it with "radius must be >= 0", which names the wrong fault
    @pytest.mark.parametrize(
        "argv",
        [
            ["intersection_density", "--gamma", "1", "--grain", "uniform:0,inf", "--rwin", "1", "--reps", "3"],
            ["visvol_stratified", "--gamma", "1", "--grain", "uniform:0,inf", "--truncate", "1"],
            ["visvol", "--gamma", "3", "--grain", "fixed:inf", "--reps", "10"],
        ],
    )
    def test_grain_of_infinite_radius_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "hypervis estimate: error: argument --grain: bad grain law" in err and "finite" in err

    def test_commands_are_the_checks(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{constants,formula,estimate,verify}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["render", "--gamma", "1", "--out", "x.svg"])
        assert exc.value.code == 2
        assert "invalid choice: 'render'" in capsys.readouterr().err

    @pytest.mark.parametrize("r_win", ["-1", "0"])
    def test_rwin_not_above_zero_is_refused_by_the_library(self, r_win, capsys):
        # the parser reads any number; intersect.check_window holds the rule
        argv = ["estimate", "intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", r_win]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "rwin must be > 0" in captured.err

    def test_entry_point_runs(self):
        # the child finds hypervis where this process found it, installed or not
        src = os.path.dirname(os.path.dirname(cf.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hypervis.cli", "constants", "--dim", "2"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
