import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hypervis import closedform as cf
from hypervis import hypgeom as hg
from hypervis import procsim as ps
from hypervis import render
from hypervis.cli import main
from hypervis.procsim import BooleanModelSample, HyperplaneSample
from hypervis.rng import stream


def _circles(svg_text):
    return re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([\d.]+)"', svg_text)


class TestRenderSvg:
    def test_empty_model_only_boundary(self, tmp_path):
        model = BooleanModelSample(
            d=2, centers=np.empty((0, 3)), radii=np.empty(0), window_radius=3.0, max_grain_radius=0.5, conditioned=True
        )
        path = tmp_path / "empty.svg"
        render.render_svg(model, path)
        text = path.read_text()
        assert text.count("<circle") == 2  # clip-path circle + unit boundary
        assert 'viewBox="-1.05 -1.05 2.1 2.1"' in text

    def test_centered_grain_is_origin_circle(self, tmp_path):
        r = 0.8
        model = BooleanModelSample(
            d=2,
            centers=hg.base_point(2)[None, :],
            radii=np.array([r]),
            window_radius=3.0,
            max_grain_radius=r,
            conditioned=False,
        )
        path = tmp_path / "one.svg"
        render.render_svg(model, path)
        grain_circles = [c for c in _circles(path.read_text()) if f'fill-opacity="{render.GRAIN_OPACITY}"' or True]
        cx, cy, rr = map(float, grain_circles[1])
        assert (cx, cy) == (0.0, 0.0)
        assert rr == pytest.approx(math.tanh(r / 2.0), abs=1e-6)

    def test_grain_circle_through_radial_endpoints(self, tmp_path):
        center = hg.exp_map(hg.base_point(2), np.array([0.0, 0.6, 0.8]), 1.3)
        model = BooleanModelSample(
            d=2, centers=center[None, :], radii=np.array([0.4]), window_radius=3.0, max_grain_radius=0.4, conditioned=True
        )
        path = tmp_path / "g.svg"
        render.render_svg(model, path)
        text = path.read_text()
        match = re.search(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([\d.]+)" fill="#1f5fa8"', text)
        cx, cy, rr = map(float, match.groups())
        u = hg.direction_to(center, hg.base_point(2))
        for sign in (1.0, -1.0):
            z = hg.to_poincare(hg.exp_map(center, sign * u, 0.4))
            # endpoint sits on the drawn circle within 0.1% of the viewport
            assert abs(math.hypot(z[0] - cx, z[1] - cy) - rr) < 2.1e-3

    def test_hyperplane_arcs_orthogonal_to_boundary(self, tmp_path):
        sample = ps.sample_hyperplanes(2, 1.0, 2.0, stream(70))
        path = tmp_path / "planes.svg"
        render.render_svg(sample, path)
        text = path.read_text()
        arcs = re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([\d.]+)" stroke="#333333"', text)
        assert arcs
        for cx, cy, rr in arcs:
            cx, cy, rr = float(cx), float(cy), float(rr)
            # orthogonality to the unit circle: |m|^2 = 1 + r^2
            assert cx * cx + cy * cy == pytest.approx(1.0 + rr * rr, rel=1e-3)

    def test_d3_rejected(self, tmp_path):
        model = HyperplaneSample(d=3, normals=np.empty((0, 4)), window_radius=2.0)
        with pytest.raises(ValueError, match="d = 2"):
            render.render_svg(model, tmp_path / "x.svg")


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
        ],
    )
    def test_formula_bad_parameter(self, argv, message, capsys):
        assert main(["formula", *argv]) == 2
        assert message in capsys.readouterr().err

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

    def test_estimate_usage_error(self, capsys):
        code = main(["estimate", "visvol", "--gamma", "0.5", "--grain", "fixed:0.5", "--reps", "10"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_render(self, tmp_path, capsys):
        out = tmp_path / "disc.svg"
        code = main(["render", "--gamma", "1.0", "--grain", "uniform:0,1", "--view-radius", "3", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_verify_subset(self, capsys):
        assert main(["verify", "--only", "3,7,10"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--only", "abc"],
            ["verify", "--only", "13"],
            ["estimate", "visvol", "--gamma", "2", "--grain", "bogus"],
            ["estimate", "visvol", "--gamma", "2", "--grain", "fixed:-1"],
            ["render", "--gamma", "1", "--grain", "fixed:0.5", "--view-radius", "-1", "--out", "x.svg"],
            ["render", "--gamma", "-1", "--out", "x.svg"],
            ["render", "--dim", "3", "--gamma", "1", "--out", "x.svg"],
            ["constants", "--dim", "0"],
            ["constants", "--dim", "1"],
            ["constants", "--dim", "two"],
            ["estimate", "intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", "-1"],
            ["estimate", "intersection_density", "--gamma", "1", "--grain", "fixed:0.5", "--rwin", "0"],
        ],
    )
    def test_invalid_argument_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"hypervis {argv[0]}: error: argument" in capsys.readouterr().err

    def test_entry_point_runs(self):
        # the child finds hypervis where this process found it, installed or not
        src = os.path.dirname(os.path.dirname(cf.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hypervis.cli", "constants", "--dim", "2"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
