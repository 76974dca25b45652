"""Guards on the package's external contracts: stdlib-only code, the documented surface and the benchmark's hooks."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

from loadcomp import Season, builtin_catalog
from loadcomp.reconcile import disaggregate
from conftest import DAY_CURVE_KW, hourly_day

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "loadcomp").glob("*.py"))


def _benchmark_child():
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sources_import_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: import {name}"


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_every_public_name_is_documented_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = []
    for node in ast.parse((ROOT / "src" / "loadcomp" / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets]
    public = [name for name in names if not name.startswith("_")]
    assert public
    for name in public:
        assert re.search(rf"\b{name}\b", readme), f"{name} is not in README.md"


def test_every_traced_benchmark_hook_resolves():
    for module_name, attribute, _, _ in _benchmark_child().TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute)), f"{module_name}.{attribute}"


def test_every_traced_benchmark_hook_is_called_by_its_bare_name():
    """A traced pass swaps each module global for a wrapper, which only a call through that global reaches.

    A name handed to a call counts too: ``_read(load_catalog, ...)`` calls it.
    """
    for module_name, attribute, _, _ in _benchmark_child().TRACED:
        tree = ast.parse((ROOT / "src" / Path(*module_name.split("."))).with_suffix(".py").read_text(encoding="utf-8"))
        callees = {
            node.id
            for call in ast.walk(tree) if isinstance(call, ast.Call)
            for node in (call.func, *call.args) if isinstance(node, ast.Name)
        }
        assert attribute in callees, f"{module_name} never calls {attribute} by that name"


def test_disaggregate_result_has_what_the_benchmark_counts():
    counts = {name: count for _, _, name, count in _benchmark_child().TRACED}
    attribution = disaggregate(hourly_day(DAY_CURVE_KW), builtin_catalog(), Season.SUMMER)
    assert counts["reconcile.disaggregate"](attribution) == 15 * 24
    assert counts["catalog.builtin_catalog"](builtin_catalog()) == 15


def test_the_cli_encodes_json_only_in_its_payload_writer():
    """Every subcommand's JSON goes through ``cli._json_payload``, the one writer that refuses NaN and infinities."""
    tree = ast.parse((ROOT / "src" / "loadcomp" / "cli.py").read_text(encoding="utf-8"))

    def encoder_calls(node):
        return sum(
            isinstance(call, ast.Call) and ast.unparse(call.func) in ("json.dumps", "json.dump", "dumps", "dump")
            for call in ast.walk(node)
        )

    writer = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_json_payload")
    assert encoder_calls(tree) == encoder_calls(writer) == 1
