"""Smoke test of the benchmark: each workload once with tiny replication counts.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks the output contract of run.py: every metric named in BENCHMARK.json
is emitted with its unit, per-layer self times fit inside the traced run,
count metrics repeat exactly at one seed, and a directory without the
program makes the benchmark fail instead of printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((BENCH / "results" / f"{workload}-seed{SEED}-trace{trace}-smoke.json").read_text())
    return result, full


def units(specs: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result, full = result_of(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], full["problems"]
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = full["environment"]
    assert env["nproc"] >= 1 and set(env["threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result, full = result_of(workload, 1)
    assert result["correct"], full["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["per_layer"])
    traced_run_s = result["metrics"]["tracing.run_s"]["value"]
    assert 0 < sum(full["detail"]["self_s_by_layer"].values()) <= traced_run_s


def test_counts_repeat_at_one_seed():
    first, _ = result_of("sweep-d3", 1)
    second, _ = result_of("sweep-d3", 1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "count/rep", "ratio")]
    assert counts
    assert all(first["metrics"][name] == second["metrics"][name] for name in counts)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
