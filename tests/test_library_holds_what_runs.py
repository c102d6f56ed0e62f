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


def test_the_library_calls_no_reduceat():
    # ufunc.reduceat needs each key's values in one run; per-key minima go through np.minimum.at, which takes
    # the keys in any order (procsim.band_first_touches, visibility._sweep)
    calls = [f"{module}.py:{node.lineno}" for module, tree in _modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "reduceat"]
    assert len(_modules()) > 5 and calls == []


def _prefixless_streams(tree) -> list[int]:
    """Line of each call in tree to streams with the seed alone before its keywords: a run of the generators
    of stream(seed, i), which items keyed by their index draw from."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and len(node.args) == 1
            and "streams" in (getattr(node.func, n, None) for n in ("id", "attr"))]


def test_only_fanout_loops_over_rounds():
    # fanout.map_rounds owns the round loop of the index-keyed estimators: a round loop written out
    # anywhere else would take the generators of stream(seed, i) from streams(seed, count=...) itself
    loop = "for lo in range(0, n, size):\n    rngs = list(islice(rng.streams(seed, count=n, start=lo), size))"
    assert _prefixless_streams(ast.parse(f"{loop}\nstreams(seed, b, count=n)")) == [2]
    calls = [f"{module}.py:{line}" for module, tree in _modules().items() for line in _prefixless_streams(tree)]
    assert len(calls) == 1 and calls[0].startswith("fanout.py:"), calls


def _owners(predicate) -> set[str]:
    """module.function for each top-level definition (module.<module> outside them) holding a node that matches."""
    return {f"{module}.{getattr(top, 'name', '<module>')}" for module, tree in _modules().items() for top in tree.body
            if any(predicate(node) for node in ast.walk(top))}


def test_only_the_guard_refuses_by_the_resource_guard():
    # procsim.guard owns the limit's test and message: a refusal written out by hand in a sampler or check would
    # construct ResourceGuardError or read MAX_EXPECTED_COUNT itself; _sweep reads the limit to choose its caps
    def named(node, name):
        return getattr(node, "id", None) == name or getattr(node, "attr", None) == name

    raisers = _owners(lambda node: isinstance(node, ast.Call) and named(node.func, "ResourceGuardError"))
    readers = _owners(lambda node: named(node, "MAX_EXPECTED_COUNT") and isinstance(node.ctx, ast.Load))
    assert raisers == {"procsim.guard"}
    assert readers == {"procsim.guard", "visibility._sweep"}


def test_one_proposal_step_draws_every_sweep_block():
    # procsim._proposals makes the first draws of every sweep sampler: a sampler that drew its own count or
    # uniforms would call .poisson( outside _counts or .random( outside _proposals; the band sampler draws its own
    def owners(method):
        called = _owners(lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == method)
        return {owner for owner in called if owner.startswith("procsim.")}

    assert owners("poisson") == {"procsim._counts", "procsim.band_first_touches"}
    assert owners("random") == {"procsim._proposals", "procsim.band_first_touches"}


def test_the_sweep_tells_no_kind_by_its_law():
    # procsim.Obstacles is the one description of an obstacle kind: the sweep, its pair pass and the samplers read
    # its fields (profile, caps, inverse, marks, kernels, named sampler), never the law that tells grains from planes
    kind_free = {"visibility": ("_sweep", "_cast"),
                 "procsim": ("_proposals", "_marked", "sample_annulus", "sample_cap_annuli", "sample_cap_union")}
    reads = []
    for module, names in kind_free.items():
        tops = {node.name: node for node in _modules()[module].body if isinstance(node, ast.FunctionDef)}
        reads += [f"{module}.{name}:{node.lineno}" for name in names for node in ast.walk(tops[name])
                  if getattr(node, "id", None) == "law" or getattr(node, "attr", None) == "law"]
    assert reads == []


def test_one_function_decides_the_sweep_caps():
    # visibility._cap makes every cap decision of the sweep and of check_sweep: a caller that read a cap's share
    # itself would call .share( outside it, as _sweep and check_sweep each did with a rule of their own
    called = _owners(lambda node: isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "share")
    assert {owner for owner in called if owner.startswith("visibility.")} == {"visibility._cap"}


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only, and the library's Gauss-Legendre rule is a table of leggauss(20)'s doubles:
    # importing the CLI loads neither scipy nor numpy.polynomial and runs no LAPACK eigen-solve
    code = ("import sys, numpy.linalg\n"
            "def refuse(*args, **kwargs): raise AssertionError('eigen-solve at import')\n"
            "numpy.linalg.eigvalsh = numpy.linalg.eigh = refuse\n"
            "import hypervis.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.polynomial'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
