"""`hypervis estimate` quantities are declared once, in harness.QUANTITIES: validation and dispatch read
the entries and never compare the quantity to a name, and the library's own checks hold the input rules,
which no module reads through another's private names. Each entry lists the options its runner and check
read. The README's estimate examples stay valid, its constants and formula examples run, and its
per-quantity option list names the options each entry reads. The benchmark's configs validate."""

import ast
import re
import shlex
from pathlib import Path

from hypervis import harness
from hypervis.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _name_comparisons(tree) -> list[str]:
    """Source of each comparison in tree with a string literal, or a container of them, on either side."""
    def literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(literal(e) for e in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(literal(side) for side in (node.left, *node.comparators))
    ]


def test_detector_sees_name_comparisons():
    tree = ast.parse('if q == "visvol" or q in ("a", "b") or "c" != q:\n    pass')
    assert len(_name_comparisons(tree)) == 3


def test_validate_and_run_compare_no_quantity_name():
    tree = ast.parse((ROOT / "src" / "hypervis" / "harness.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    config = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    methods = {node.name: node for node in config.body if isinstance(node, ast.FunctionDef)}
    for node in (methods["validate"], functions["run"]):
        assert not _name_comparisons(node), f"{node.name} branches on a quantity name instead of its table entry"


def test_each_quantity_reads_what_its_runner_and_check_read():
    # an option that a runner or check reads but its entry does not list would reach it as None, unfilled
    tree = ast.parse((ROOT / "src" / "hypervis" / "harness.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign) and node.targets[0].id == "QUANTITIES")
    for key, call in zip(table.keys, table.values):
        lambdas = [node for arg in call.args for node in ast.walk(arg)]
        used = {node.attr for node in lambdas if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "c"}
        assert used - {"quantity"} == set(harness.QUANTITIES[key.value].reads), key.value


SOURCES = sorted((ROOT / "src" / "hypervis").glob("*.py"))
MODULES = {path.stem for path in SOURCES} - {"__init__"}


def _private_reads(tree) -> list[str]:
    """Source of each read of, or import of, a _-prefixed name of a MODULES module in tree, by its name or by
    the alias an import gave it."""
    names = set(MODULES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and not node.module:  # from . import x as y
            names |= {alias.asname for alias in node.names if alias.name in MODULES and alias.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names:
            if node.attr.startswith("_"):
                found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in MODULES:
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_detector_sees_private_reads():
    tree = ast.parse("from .visibility import _a, b\nfrom . import rng as r\n"
                     "x = procsim._guard + intersect.public + closedform._c(1) + r._d")
    assert sorted(_private_reads(tree)) == ["closedform._c", "procsim._guard", "r._d", "visibility._a"]


def test_no_module_reads_a_private_name_of_another():
    # a module calls another's public functions and reads its public constants, never its internals: harness
    # validates each quantity by its library check instead of repeating the rules, and a constant two modules
    # read has one public home that a test's patch reaches
    found = {path.name: _private_reads(ast.parse(path.read_text())) for path in SOURCES}
    assert not {name: reads for name, reads in found.items() if reads}


def _readme_examples(command: str) -> list[list[str]]:
    """The argv of each README line that runs `hypervis command`."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith(f"hypervis {command} ")]


def test_readme_estimate_examples_validate(monkeypatch, tmp_path):
    examples = _readme_examples("estimate")
    assert len(examples) >= 5
    configs = []
    stub = harness.FormulaCheckResult(0.0, True, {})
    # validate only: the examples' runs take seconds each
    monkeypatch.setattr(harness, "run", lambda config: configs.append(config) or stub)
    monkeypatch.chdir(tmp_path)  # an example may write its record with --out
    for argv in examples:
        assert main(argv) == 0, argv
    assert [c.quantity for c in configs] == [argv[1] for argv in examples]
    assert set(harness.QUANTITIES) <= {c.quantity for c in configs}, "every quantity has a README example"
    for config in configs:
        config.validate()


def test_readme_constants_and_formula_examples_run(capsys):
    examples = _readme_examples("constants") + _readme_examples("formula")
    assert len(examples) >= 4
    for argv in examples:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def _readme_quantity_items() -> dict[str, str]:
    """The text of each README list item "- `q`: ...", by q, with its continuation lines."""
    items, name = {}, None
    for line in (ROOT / "README.md").read_text().splitlines():
        match = re.match(r"- `(\w+)`: (.*)", line)
        if match:
            name, items[match[1]] = match[1], match[2]
        elif name and line.startswith("  "):
            items[name] += " " + line.strip()
        else:
            name = None
    return items


def test_readme_names_the_options_each_quantity_needs():
    # the README's per-quantity option list names exactly the harness.OPTIONS flags that each table entry reads
    flags = {option.flag for option in harness.OPTIONS.values()}
    items = _readme_quantity_items()
    for quantity, entry in harness.QUANTITIES.items():
        assert quantity in items, f"README lists no options of {quantity}"
        named = set(re.findall(r"--\w+", items[quantity])) & flags
        assert named == {harness.OPTIONS[name].flag for name in entry.reads}, quantity


def test_benchmark_configs_validate(benchmark_workloads):
    # building a sweep workload validates each of its configs, so the option rule refuses none that the benchmark runs
    for name, build in benchmark_workloads.WORKLOADS.items():
        for smoke in (False, True):
            assert build(42, smoke).calls, (name, smoke)
