import json
import math
import os
import re
import subprocess
import sys

import pytest

from hypervis import acceptance
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
    def test_estimate_to_an_unwritable_path(self, name, reason, tmp_path, capsys):
        out = tmp_path / name
        argv = ["estimate", "zero_cell", "--gamma", "3", "--reps", "3", "--rays", "3", "--cutoff", "1", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: cannot write {out}: {reason}\n"

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
        seed = int(re.fullmatch(r"reported 2 criteria with the fresh master seed (\d+) \(not asserted\)", out[-1])[1])
        rerun = acceptance.run_all(seed, only={1, 11})
        assert [line.split(") ", 1)[1] for line in out[:-1]] == [res.line().split(") ", 1)[1] for res in rerun]

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
        ],
    )
    def test_invalid_argument_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"hypervis {argv[0]}: error: argument" in capsys.readouterr().err

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
