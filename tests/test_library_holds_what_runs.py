"""src/hypervis holds what the CLI, the acceptance criteria and the estimators run; reference code that
only the tests use lives in tests/oracles.py, and the hyperboloid primitives it builds on in tests/hypgeom.py."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hypervis"
TRACER = SRC.parents[1] / "benchmarks" / "tracer.py"

# Top-level definitions kept although nothing in src/ uses them, each with its reason.
ALLOWED = {
    "truncation_asymptote": "the subcritical exponent d - 1 - a that ROADMAP item 5's verdicts check",
    "radius_at_volume": "benchmarks/tracer.py wraps it in closedform and visibility",
    "sample_boolean": "the public windowed sampler; benchmarks/tracer.py wraps it",
    "sample_hyperplanes": "the public windowed sampler; benchmarks/tracer.py wraps it",
    "grain_hits_from_base": "the public (rays, grains) hit matrix, which the sweep's round pass no longer builds; "
    "benchmarks/tracer.py wraps it",
}
# Decorators that register what they decorate, which is then reached through the registry.
REGISTRARS = {"_criterion"}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _registered(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) in REGISTRARS for d in node.decorator_list)


def _names(tree) -> list[str]:
    """Every name that tree reads or looks up as an attribute; an import alone is not a use."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
    return out


def test_every_definition_is_used_by_the_library():
    modules = _modules()
    definitions = []  # (module, name)
    references = {}  # name -> number of references, a definition's own body excluded
    for module, tree in modules.items():
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None and not _registered(node) and own not in ALLOWED:
                definitions.append((module, own))
            for name in _names(node):
                if name != own:
                    references[name] = references.get(name, 0) + 1
    assert len(definitions) > 100  # the scan sees the package
    unused = [f"{module}.{name}" for module, name in definitions if not references.get(name)]
    assert not unused, f"used only by tests (move them to tests/oracles.py) or by nothing: {unused}"


def test_what_is_kept_for_the_tracer_is_wrapped_by_it():
    # an entry kept for the tracer expires when the tracer stops wrapping it
    spec = importlib.util.spec_from_file_location("hypervis_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {attr for _, attr, *_ in tracer.WRAPPED}
    cited = [name for name, reason in ALLOWED.items() if "benchmarks/tracer.py" in reason]
    assert cited
    assert [name for name in cited if name not in wrapped] == []


def test_the_library_imports_nothing_from_tests():
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not any(n.split(".")[0] in ("tests", "oracles", "conftest", "hypgeom") for n in names), module


def test_the_library_calls_no_generator_uniform():
    # Generator.uniform(lo, hi) returns the bits of lo + (hi - lo) * Generator.random at more than twice its cost
    calls = [f"{module}.py:{node.lineno}" for module, tree in _modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "uniform"]
    assert len(_modules()) > 5 and calls == []


def test_only_fanout_loops_over_rounds():
    # fanout.map_rounds owns the round loop of the index-keyed estimators: a round loop written out
    # anywhere else would call rng.rounds itself
    calls = [f"{module}.py:{node.lineno}" for module, tree in _modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "rounds" in (getattr(node.func, n, None) for n in ("id", "attr"))]
    assert len(calls) == 1 and calls[0].startswith("fanout.py:"), calls


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only: the library's quadrature is numpy's Gauss-Legendre rule
    code = "import sys, hypervis.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
