"""Command-line interface: constants, formula evaluation, estimation runs,
SVG rendering, and the acceptance verification suite."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import acceptance, closedform, harness, procsim, render
from .closedform import parse_grain_law
from .rng import stream


def _grain_law(text: str) -> closedform.GrainLaw:
    try:
        return parse_grain_law(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _above_zero(text: str) -> float:
    """A number that is not <= 0. NaN and inf pass, for the configuration to refuse as non-finite."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return value


def _dimension(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return value


def _criterion_numbers(text: str) -> set[int]:
    try:
        numbers = {int(s) for s in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated criterion numbers, got {text!r}") from None
    unknown = sorted(numbers - set(acceptance.CRITERIA))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown criteria {unknown}; known: {sorted(acceptance.CRITERIA)}")
    return numbers


def _add_estimate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--gamma", type=float, default=None, help="intensity; every quantity but formula_check needs it")
    p.add_argument("--grain", type=_grain_law, default=None, help="fixed:R or uniform:A,B")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--rays", type=int, default=200)
    p.add_argument("--cutoff", type=float, default=12.0)
    p.add_argument("--truncate", type=float, default=None)
    p.add_argument("--rwin", type=_above_zero, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stratified", action="store_true", help="depth-stratified truncated estimator")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypervis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="unit-ball constants for a dimension")
    p_const.add_argument("--dim", type=_dimension, required=True)

    p_formula = sub.add_parser("formula", help="evaluate one closed form")
    p_formula.add_argument("name", type=str)
    p_formula.add_argument("params", nargs="*", help="key=value arguments")

    p_est = sub.add_parser("estimate", help="run one Monte Carlo estimate")
    p_est.add_argument("quantity", choices=harness.QUANTITIES)
    _add_estimate_args(p_est)

    p_render = sub.add_parser("render", help="draw a realization on the Poincare disk")
    p_render.add_argument("--dim", type=int, choices=(2,), default=2, help="SVG rendering is for d = 2 only")
    p_render.add_argument("--gamma", type=_positive_float, required=True)
    p_render.add_argument("--grain", type=_grain_law, default=None, help="fixed:R or uniform:A,B; omit for hyperplanes")
    p_render.add_argument("--view-radius", type=_positive_float, default=4.0)
    p_render.add_argument("--seed", type=int, default=0)
    p_render.add_argument("--out", type=str, required=True)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--fresh-seed", action="store_true", help="report with a fresh seed, never fail")
    p_verify.add_argument("--only", type=_criterion_numbers, default=None, help="comma-separated criterion numbers")
    return parser


_GRAIN_ARGS = {"d": int, "gamma": float, "grain": parse_grain_law}

# name -> (function, parser of each parameter in call order, default texts)
_FORMULAS = {
    "ell": (closedform.ell, {"d": int, "j": int, "r": float}, {}),
    "ball_volume": (closedform.ball_volume, {"d": int, "r": float}, {}),
    "ball_surface": (closedform.ball_surface, {"d": int, "r": float}, {}),
    "sinh_exp_integral": (closedform.sinh_exp_integral, {"d": int, "a": float}, {}),
    "critical_scaling": (closedform.critical_scaling, {"d": int, "delta": float}, {}),
    "visibility_threshold": (closedform.visibility_threshold, {"d": int, "radius": float}, {}),
    "zero_cell_mean_volume": (closedform.zero_cell_mean_volume, {"d": int, "gamma": float}, {}),
    "verify_ell_identity": (closedform.verify_ell_identity, {"d": int, "k": int, "j": int, "r": float}, {}),
    "steiner_ball_check": (closedform.steiner_ball_check, {"d": int, "radius": float, "r": float}, {}),
    "grain_moments": (lambda d, gamma, law: vars(closedform.grain_moments(d, law)), _GRAIN_ARGS, {"gamma": "1"}),
    "mean_visible_volume": (closedform.mean_visible_volume, _GRAIN_ARGS, {"gamma": "1"}),
    "intersection_density": (closedform.intersection_density, _GRAIN_ARGS, {"gamma": "1"}),
    "truncated_visible_volume": (closedform.truncated_visible_volume, {**_GRAIN_ARGS, "r": float}, {}),
}


def _run_formula(name: str, params: list[str]) -> dict:
    if name not in _FORMULAS:
        raise ValueError(f"unknown formula {name!r}; known: {sorted(_FORMULAS)}")
    fn, parsers, defaults = _FORMULAS[name]
    given = dict(defaults)
    for param in params:
        key, sep, text = param.partition("=")
        if not sep:
            raise ValueError(f"malformed parameter {param!r}: expected key=value")
        if key not in parsers:
            raise ValueError(f"unknown parameter {key!r}: {name} takes {', '.join(parsers)}")
        given[key] = text
    args = []
    for key, parse in parsers.items():
        if key not in given:
            raise ValueError(f"missing parameter {key!r}: {name} takes {', '.join(parsers)}")
        try:
            args.append(parse(given[key]))
        except ValueError as exc:
            raise ValueError(f"malformed parameter {key}={given[key]!r}: {exc}") from None
    return {"formula": name, "value": fn(*args)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "constants":
        c = closedform.Constants.for_dim(args.dim)
        print(json.dumps({"dim": c.d, "kappa_d": c.kappa_d, "omega_d": c.omega_d}, indent=2))
        return 0

    if args.command == "formula":
        try:
            out = _run_formula(args.name, args.params)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(out, indent=2, default=str))
        return 0

    if args.command == "estimate":
        config = harness.ExperimentConfig(
            quantity=args.quantity,
            d=args.dim,
            gamma=args.gamma,
            law=args.grain,
            n_reps=args.reps,
            n_rays=args.rays,
            cutoff=args.cutoff,
            truncate_at=args.truncate,
            r_win=args.rwin,
            seed=args.seed,
            stratified=args.stratified,
        )
        try:
            result = harness.run(config)
        except harness.UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        harness.emit(result, args.format, args.out if args.out else sys.stdout)
        return 0

    if args.command == "render":
        rng = stream(args.seed, 0)
        if args.grain:
            model = procsim.sample_boolean(args.dim, args.gamma, args.grain, args.view_radius, rng)
        else:
            model = procsim.sample_hyperplanes(args.dim, args.gamma, args.view_radius, rng)
        render.render_svg(model, args.out, view_radius=args.view_radius)
        print(args.out)
        return 0

    if args.command == "verify":
        results = acceptance.run_all(fresh_seed=args.fresh_seed, only=args.only)
        for res in results:
            print(res.line())
        failed = [r for r in results if not r.passed]
        if args.fresh_seed:
            print(f"reported {len(results)} criteria with a fresh seed (not asserted)")
            return 0
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
        return 1 if failed else 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
