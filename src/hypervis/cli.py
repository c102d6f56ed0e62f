"""Command-line interface: constants, formula evaluation, estimation runs (whose flags, parsers and defaults
harness.OPTIONS holds), and the acceptance verification suite."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import acceptance, closedform, harness, procsim
from .closedform import parse_grain_law


def _dim(text: str) -> int:  # a dimension 2..341, the rule of `constants --dim` and of `formula`'s d
    return closedform.Constants.for_dim(int(text)).d


def _argument(parse):
    """parse as an argparse type: its ValueError becomes the reason that the parser prints after the flag."""

    def argument(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return argument


def _criterion_numbers(text: str) -> set[int]:
    try:
        numbers = {int(s) for s in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated criterion numbers, got {text!r}") from None
    unknown = sorted(numbers - set(acceptance.CRITERIA))
    if unknown:
        known = f"{sorted(acceptance.CRITERIA)}, and 12 (the family-wise z bound), which runs only on a full run"
        raise argparse.ArgumentTypeError(f"unknown criteria {unknown}; known: {known}")
    return numbers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypervis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="unit-ball constants for a dimension")
    p_const.add_argument("--dim", type=_argument(_dim), required=True)

    p_formula = sub.add_parser("formula", help="evaluate one closed form")
    p_formula.add_argument("name", type=str)
    p_formula.add_argument("params", nargs="*", help="key=value arguments")

    p_est = sub.add_parser("estimate", help="run one Monte Carlo estimate")
    p_est.add_argument("quantity", choices=harness.QUANTITIES)
    for name, option in harness.OPTIONS.items():  # unset, each is None: validation refuses it or gives its default
        p_est.add_argument(option.flag, dest=name, type=_argument(option.parse), help=option.help)
    p_est.add_argument("--format", choices=("json", "csv"), default="json")
    p_est.add_argument("--out", type=str, default=None)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    verify_seed = p_verify.add_mutually_exclusive_group()
    verify_seed.add_argument("--fresh-seed", action="store_true", help="report with a fresh seed, never fail")
    seed = _argument(harness.OPTIONS["seed"].parse)  # the rule of estimate's --seed
    verify_seed.add_argument("--seed", type=seed, default=None, help="report with this master seed, never fail")
    p_verify.add_argument("--only", type=_criterion_numbers, default=None, help="comma-separated criterion numbers")
    return parser


_GRAIN_ARGS = {"d": _dim, "gamma": float, "grain": parse_grain_law}

# name -> (function, parser of each parameter in call order, default texts)
_FORMULAS = {
    "ell": (closedform.ell, {"d": _dim, "j": int, "r": float}, {}),
    "ball_volume": (closedform.ball_volume, {"d": _dim, "r": float}, {}),
    "ball_surface": (closedform.ball_surface, {"d": _dim, "r": float}, {}),
    "sinh_exp_integral": (closedform.sinh_exp_integral, {"d": _dim, "a": float}, {}),
    "critical_scaling": (closedform.critical_scaling, {"d": _dim, "delta": float}, {}),
    "visibility_threshold": (closedform.visibility_threshold, {"d": _dim, "radius": float}, {}),
    "zero_cell_mean_volume": (closedform.zero_cell_mean_volume, {"d": _dim, "gamma": float}, {}),
    "verify_ell_identity": (closedform.verify_ell_identity, {"d": _dim, "k": int, "j": int, "r": float}, {}),
    "steiner_ball_check": (closedform.steiner_ball_check, {"d": _dim, "radius": float, "r": float}, {}),
    "grain_moments": (lambda d, law: vars(closedform.grain_moments(d, law)), {"d": _dim, "grain": parse_grain_law}, {}),
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
    # An overflow inside a formula raises OverflowError from math (ZeroDivisionError where a divisor underflows) or
    # gives inf or NaN from numpy, reported here instead of numpy's warnings. Only the formulas on sinh_exp_integral
    # are infinite, at or below their threshold, and any formula may be at an infinite argument (ball_volume(inf)).
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = fn(*args)
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    values = value.values() if isinstance(value, dict) else [value]
    infinite = name in ("sinh_exp_integral", "mean_visible_volume", "zero_cell_mean_volume")
    infinite |= not all(math.isfinite(a) for a in args if isinstance(a, float))
    if any(math.isnan(v) or math.isinf(v) and not infinite for v in values):
        raise ValueError(f"{name} overflows double precision at these parameters")
    return {"formula": name, "value": value}


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
        config = harness.ExperimentConfig(args.quantity, **{name: getattr(args, name) for name in harness.OPTIONS})
        made = bool(args.out) and not os.path.lexists(args.out)
        try:  # probe the path before the run; a file the probe made goes again unless the run completes
            if args.out:
                open(args.out, "a").close()
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
        result = None
        try:
            result = harness.run(config)
        except (harness.UsageError, procsim.ResourceGuardError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        finally:
            if made and result is None:
                os.remove(args.out)
        try:
            harness.emit(result, args.format, args.out if args.out else sys.stdout)
        except OSError as exc:
            print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
            return 2
        return 0

    if args.command == "verify":
        seed = int(np.random.SeedSequence().entropy % 2**31) if args.fresh_seed else args.seed
        results = acceptance.run_all(acceptance.DEFAULT_SEED if seed is None else seed, only=args.only)
        for res in results:
            print(res.line())
        failed = [r for r in results if not r.passed]
        if args.fresh_seed:
            print(f"reported {len(results)} criteria with the fresh master seed {seed} (not asserted); "
                  f"re-run them with --seed {seed}")
            return 0
        if seed is not None:
            print(f"reported {len(results)} criteria with the master seed {seed} (not asserted)")
            return 0
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
        return 1 if failed else 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
