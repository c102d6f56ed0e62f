"""The benchmark's workloads: fixed call lists built from a master seed, and
the checks applied to every call's output.

A workload is a list of calls into the same public entry points that
`hypervis verify` and `hypervis estimate` use (`acceptance.CRITERIA[n]` and
`harness.run`), plus checks over the whole pass. The package only ever sees
the generated configs and seeds.

Every check has two parts:

- the verdict, exactly the repository's own test: a criterion's `passed`,
  KS at 1% from `harness`, |z| < 4 for a visible-volume estimate, and the
  family-wise max |z| < 4 of `hypervis verify`. A failed verdict is counted,
  never retried or re-seeded.
- well-formedness: the record has the shape and internal consistency the
  program promises (sizes, recomputed critical values and z-scores, finite
  numbers). A malformed record means the program computed something wrong.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable

from hypervis import acceptance, closedform, harness
from hypervis.closedform import FixedRadius
from hypervis.harness import ExperimentConfig, KsResult
from hypervis.visibility import EstimateRecord

# Criteria whose verdict does not depend on the seed: closed-form identities
# and quadrature. A failure there is a wrong output, not a statistical event.
EXACT_CRITERIA = (3, 6, 7, 10)
# Cheap criteria run by --smoke; 2 and 5 take about 10 s and 5 s each.
SMOKE_CRITERIA = (1, 3, 4, 6, 7, 8, 9, 10, 11)
FAMILY_Z_BOUND = 4.0
VISVOL_Z_BOUND = 4.0
SMOKE_REPS = 20


@dataclass(frozen=True)
class Check:
    """Outcome of checking one output."""

    name: str
    passed: bool  # the verdict
    problems: tuple[str, ...] = ()  # well-formedness violations
    exact: bool = False  # verdict does not depend on the seed


@dataclass(frozen=True)
class Call:
    """One call of a workload; `span` names the benchmark's own span around it."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    span: str | None = None


@dataclass(frozen=True)
class Workload:
    calls: tuple[Call, ...]
    pass_checks: Callable[[dict[str, Any]], list[Check]]


def comparable(record: Any) -> str:
    """Canonical text of a record without its timing fields, for exact comparison."""
    fields = dataclasses.asdict(record)
    fields.pop("runtime_ms", None)
    fields.pop("runtime_s", None)
    return repr(sorted(fields.items()))


# ---------------------------------------------------------------------------
# verify-d2: the pinned `hypervis verify`, with the master seed as argument
# ---------------------------------------------------------------------------


def _criterion_call(number: int, seed: int) -> Call:
    criterion_seed = seed + 1000 * number  # the sub-seed rule of acceptance.run_all

    def run():
        return acceptance.CRITERIA[number](criterion_seed)

    def check(res) -> Check:
        problems = []
        if not isinstance(res, acceptance.CriterionResult) or res.number != number:
            problems.append(f"not the result of criterion {number}: {res!r}")
        elif not all(math.isfinite(z) for z in res.z_scores):
            problems.append(f"non-finite z-scores {res.z_scores}")
        return Check(
            f"criterion_{number:02d}", bool(getattr(res, "passed", False)), tuple(problems), number in EXACT_CRITERIA
        )

    label = f"criterion_{number:02d}"
    return Call(label, run, check, span=f"acceptance.{label}")


def _family_check(records: dict[str, Any]) -> list[Check]:
    zs = [z for res in records.values() if isinstance(res, acceptance.CriterionResult) for z in res.z_scores]
    if not zs:
        return []
    return [Check("family_wise_z", max(abs(z) for z in zs) < FAMILY_Z_BOUND)]


def verify_d2(seed: int, smoke: bool) -> Workload:
    numbers = SMOKE_CRITERIA if smoke else tuple(sorted(acceptance.CRITERIA))
    return Workload(tuple(_criterion_call(n, seed) for n in numbers), _family_check)


# ---------------------------------------------------------------------------
# Sweeps: harness.run on generated configs
# ---------------------------------------------------------------------------


def _ks_check(label: str, cfg: ExperimentConfig) -> Callable[[Any], Check]:
    def check(res) -> Check:
        if not isinstance(res, KsResult):
            return Check(label, False, (f"expected a KS result, got {res!r}",))
        problems = []
        if not 1 <= res.n <= cfg.n_reps:
            problems.append(f"KS sample size {res.n} outside [1, {cfg.n_reps}]")
        if not 0.0 <= res.statistic <= 1.0:
            problems.append(f"KS statistic {res.statistic} outside [0, 1]")
        if res.n >= 1 and res.critical_1pct != harness.KS_COEFF_1PCT / math.sqrt(res.n):
            problems.append(f"critical value {res.critical_1pct} is not {harness.KS_COEFF_1PCT}/sqrt({res.n})")
        if res.passed != (res.statistic < res.critical_1pct):
            problems.append("verdict disagrees with statistic and critical value")
        return Check(label, bool(res.passed), tuple(problems))

    return check


def _visvol_check(label: str, cfg: ExperimentConfig) -> Callable[[Any], Check]:
    closed = closedform.mean_visible_volume(cfg.d, cfg.gamma, cfg.law)

    def check(res) -> Check:
        if not isinstance(res, EstimateRecord):
            return Check(label, False, (f"expected an estimate record, got {res!r}",))
        problems = []
        if (res.quantity, res.dim, res.n_reps, res.n_rays, res.seed) != (
            cfg.quantity, cfg.d, cfg.n_reps, cfg.n_rays, cfg.seed
        ):
            problems.append("record does not describe the requested run")
        if not (math.isfinite(res.estimate) and math.isfinite(res.stderr) and res.stderr > 0):
            problems.append(f"estimate {res.estimate} +- {res.stderr} is not finite and positive")
        if res.closed_form != closed:
            problems.append(f"closed form {res.closed_form} differs from {closed}")
        if res.z_score is None or res.z_score != (res.estimate - closed) / res.stderr:
            problems.append(f"z-score {res.z_score} inconsistent with estimate, closed form and stderr")
        if not 0.0 <= res.censored_fraction <= 1.0:
            problems.append(f"censored fraction {res.censored_fraction} outside [0, 1]")
        passed = res.z_score is not None and abs(res.z_score) < VISVOL_Z_BOUND
        return Check(label, passed, tuple(problems))

    return check


def _sweep(seed: int, smoke: bool, specs: list[tuple[str, dict]]) -> Workload:
    calls = []
    for k, (label, params) in enumerate(specs, start=1):
        if smoke:
            params = dict(params, n_reps=SMOKE_REPS)
        cfg = ExperimentConfig(seed=seed + 1000 * k, **params)
        cfg.validate()
        make_check = _visvol_check if cfg.quantity == "visvol" else _ks_check
        # harness.run is looked up at call time, so the traced run sees its wrapper.
        calls.append(Call(label, lambda cfg=cfg: harness.run(cfg), make_check(label, cfg)))
    return Workload(tuple(calls), lambda records: [])


def sweep_d3(seed: int, smoke: bool) -> Workload:
    # Rates are above d - 1 = 2 (a = 3 and 3.41), where the mean cost of a
    # replication, which grows like e^{2 range}, is finite; see README.
    return _sweep(
        seed,
        smoke,
        [
            ("cdf_tessellation-d3", dict(quantity="cdf_tessellation", d=3, gamma=6.0, n_reps=2000, cutoff=6.0)),
            (
                "cdf_boolean-d3",
                dict(quantity="cdf_boolean", d=3, gamma=4.0, law=FixedRadius(0.5), n_reps=700, cutoff=6.0),
            ),
        ],
    )


def sweep_highdim(seed: int, smoke: bool) -> Workload:
    return _sweep(
        seed,
        smoke,
        [
            (
                "visvol-d4",
                dict(quantity="visvol", d=4, gamma=12.0, law=FixedRadius(0.5), n_reps=700, n_rays=50, cutoff=8.0),
            ),
            ("cdf_tessellation-d5", dict(quantity="cdf_tessellation", d=5, gamma=12.0, n_reps=1500, cutoff=6.0)),
            (
                "cdf_boolean-d5",
                dict(quantity="cdf_boolean", d=5, gamma=20.0, law=FixedRadius(0.5), n_reps=2000, cutoff=6.0),
            ),
        ],
    )


WORKLOADS = {"verify-d2": verify_d2, "sweep-d3": sweep_d3, "sweep-highdim": sweep_highdim}
