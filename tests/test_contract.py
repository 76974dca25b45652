"""Guards on the package's external contracts: stdlib-only code, the documented surface and the benchmark's hooks."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from loadcomp import Season, builtin_catalog, cli
from loadcomp.catalog import ApplianceSpec, Catalog, OperationClass
from loadcomp.composition import SeasonalConsumptionTable
from loadcomp.profile import Granularity, LoadProfile
from loadcomp.reconcile import HourlyAttribution, ReconciliationResult, SeasonalModel, disaggregate
from loadcomp.synth import OccupancyCurve, default_occupancy
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


def test_sources_import_only_at_module_level():
    """An import inside a function does not make start-up cheaper; it moves the cost into the first call."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
        ]
        assert not nested, f"{path.name}: imports below module level at lines {nested}"


def test_importing_the_cli_loads_neither_dataclasses_nor_statistics():
    """Start-up is most of a one-day command's time; these modules would add milliseconds to every run."""
    code = "import sys; before = set(sys.modules); import loadcomp.cli; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True, timeout=60).stdout.split()
    assert "loadcomp.cli" in loaded
    assert not {"dataclasses", "inspect", "statistics", "fractions", "decimal"} & set(loaded)


def _records():
    spec = builtin_catalog().specs[0]
    table = SeasonalConsumptionTable(season=Season.WINTER, activities=("TV",), units=(1,), per_unit_daily_wh=(120.0,),
                                     household_daily_wh=(120.0,), operations=(OperationClass.MANUAL,),
                                     days_per_month=30)
    profile = LoadProfile((datetime(2016, 1, 1),), (1.0,), Granularity.HOURLY)
    model = SeasonalModel(table, (("TV", (1.0 / 120.0,) * 24),), ())
    return (
        ApplianceSpec(**spec._asdict()),
        Catalog(specs=(spec,)),
        table,
        ReconciliationResult(scale_factor=1.0, measured_energy_kwh=3.6, bottom_up_energy_kwh=3.6,
                             relative_gap=0.0, adjusted_table=table),
        model,
        HourlyAttribution(by_activity={"TV": (1.0,)}, measured=profile, model=model),
        OccupancyCurve(weights=(1.0 / 24.0,) * 24),
        profile,
    )


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_every_record_rejects_assignment(record):
    """Results are shared freely (the default occupancy curve by every caller), so no field may change."""
    names = getattr(record, "_fields", None) or tuple(vars(record))
    assert names
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


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


def test_the_cli_builds_its_parser_once_per_process():
    """In-process callers of ``cli.main`` reuse one parser instead of rebuilding it on every call."""
    assert cli.build_parser() is cli.build_parser()


_FRESH_CALL = """
import contextlib, io, sys
from loadcomp import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, cli.build_parser.cache_info().misses, *sorted({"shutil", "locale"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv, expected", [
    (["reconcile", "--builtin-paper", "--profile", "winter_day.csv"], ["0", "0"]),  # the flag table, no parser
    (["composition", "--format", "csv"], ["1", "1", "locale", "shutil"]),  # a usage error builds it
])
def test_a_fresh_process_builds_the_parser_only_for_help_usage_and_errors(argv, expected):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-S", "-c", _FRESH_CALL, *argv], env=env, capture_output=True, text=True,
                            check=True, timeout=60, cwd=ROOT / "tests" / "golden" / "inputs")
    assert result.stdout.split() == expected


def test_the_builtin_catalog_is_built_once_per_process():
    """The built-in catalog is constant and immutable, so every caller shares one."""
    assert builtin_catalog() is builtin_catalog()


def test_disaggregate_result_has_what_the_benchmark_counts():
    counts = {name: count for _, _, name, count in _benchmark_child().TRACED}
    attribution = disaggregate(hourly_day(DAY_CURVE_KW), builtin_catalog(), default_occupancy())
    assert counts["reconcile.disaggregate"](attribution) == 15 * 24
    assert counts["catalog.builtin_catalog"](builtin_catalog()) == 15


def test_only_the_seasonal_table_evaluates_the_energy_rule():
    """``composition.seasonal_table`` turns catalog entries into energies; every later layer reads its rows.

    So outside ``catalog.py``, which checks these fields, no other function reads a wattage or a fraction of a
    spec, or calls its ``tou`` or ``units``: a second copy of the rule could drift from the first.
    """
    fields = {"run_watts", "idle_watts", "run_fraction", "idle_fraction"}

    def owned(node, owner):
        """Each node below ``node`` with the name of the innermost function or class around it."""
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            yield child, inner
            yield from owned(child, inner)

    readers = set()
    for path in SOURCES:
        if path.name == "catalog.py":
            continue
        for node, owner in owned(ast.parse(path.read_text(encoding="utf-8")), "<module>"):
            called = node.func if isinstance(node, ast.Call) else None
            if isinstance(called, ast.Attribute) and called.attr in ("tou", "units"):
                readers.add(f"{path.stem}.{owner}: .{called.attr}(")
            elif isinstance(node, ast.Attribute) and node.attr in fields:
                readers.add(f"{path.stem}.{owner}: .{node.attr}")
    assert {reader.partition(":")[0] for reader in readers} == {"composition.seasonal_table"}, sorted(readers)


def test_json_is_encoded_only_by_the_one_payload_writer():
    """Every JSON payload goes through ``_sourceio.json_text``, the one encoder, which refuses NaN and infinities.

    Only ``_sourceio.py`` defines it, and it encodes every value itself: no module in ``src/`` names ``json.dump``,
    ``json.dumps`` or ``JSONEncoder`` (called, imported under any alias, or as an attribute), and ``cli.py`` calls
    ``json_text`` for its payloads and sidecars.
    """
    definers, encoders = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definers += [path.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "json_text"]
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [node.id] if isinstance(node, ast.Name)
                     else [])
            encoders += [f"{path.name}: {name}" for name in names if name in ("dump", "dumps", "JSONEncoder")]
    assert definers == ["_sourceio.py"]
    assert not encoders
    cli_tree = ast.parse((ROOT / "src" / "loadcomp" / "cli.py").read_text(encoding="utf-8"))
    assert "json_text" in {ast.unparse(call.func) for call in ast.walk(cli_tree) if isinstance(call, ast.Call)}


def test_only_the_source_reader_reads_a_file():
    """``_sourceio.read_text`` reads every input file and turns a failed read or decode into the loader's own error.

    So nothing else in ``src/`` calls ``.read_text(``, ``.read_bytes(`` or ``open(``, and ``cli.py``, which calls
    the loaders directly, has no ``UnicodeDecodeError`` of its own to catch.
    """
    readers = set()
    for path in SOURCES:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for call in ast.walk(statement):
                called = call.func if isinstance(call, ast.Call) else None
                if ((isinstance(called, ast.Attribute) and called.attr in ("read_text", "read_bytes", "open"))
                        or (isinstance(called, ast.Name) and called.id == "open")):
                    readers.add(f"{path.stem}.{owner}: {ast.unparse(called)}(")
    assert {reader.partition(":")[0] for reader in readers} == {"_sourceio.read_text"}, sorted(readers)
    cli = ast.parse((ROOT / "src" / "loadcomp" / "cli.py").read_text(encoding="utf-8"))
    assert "UnicodeDecodeError" not in {node.id for node in ast.walk(cli) if isinstance(node, ast.Name)}


def test_only_the_profile_takes_a_timestamp_apart():
    """``LoadProfile``'s calendar columns (``days``, ``hours`` and ``months``) read each sample's date, hour and month.

    So outside ``profile.py`` nothing reads an attribute named ``toordinal``, ``date``, ``year``, ``month``, ``day``
    or ``hour``, by a dot or by ``attrgetter``/``getattr``: a second reading could take another offset than the
    columns do.
    """
    fields = {"toordinal", "date", "year", "month", "day", "hour"}
    readers = []
    for path in SOURCES:
        if path.name == "profile.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in fields:
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif (isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] in ("attrgetter", "getattr")
                  and any(isinstance(arg, ast.Constant) and arg.value in fields for arg in node.args)):
                readers.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not readers, readers


def test_every_definition_in_the_library_has_a_caller_outside_the_tests():
    """A function, class or module constant that only the tests use is a test helper: it belongs in the tests.

    A use is the name as a load, an attribute, an imported name or a string anywhere in ``src/`` or ``bench/``
    (the benchmark looks its hooks up by string). A method that shares its name with another use, such as
    ``get``, looks used here, so this check cannot see it.
    """
    defined = []
    used = set()
    for path in (*SOURCES, *sorted((ROOT / "bench").glob("*.py"))):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        if path in SOURCES:
            constants = (
                target.id
                for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)
            )
            functions = (
                node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            )
            defined += [(path.name, name) for name in (*constants, *functions)
                        if not (name.startswith("__") and name.endswith("__"))]
    unused = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not unused, unused


def test_every_record_field_is_read_outside_the_tests():
    """A field that no computation reads is a copy kept for nobody: each record holds only what its readers use.

    The records are the ``NamedTuple`` and ``_Frozen`` classes of ``src/loadcomp/``, and their fields the names
    annotated in the class body. A field is read when ``src/`` or ``bench/`` loads it as an attribute. A field that
    shares its name with another read attribute, such as a property of another type, looks read here.
    """
    fields, read = [], set()
    for path in (*SOURCES, *sorted((ROOT / "bench").glob("*.py"))):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
        if path in SOURCES:
            fields += [
                f"{path.stem}.{node.name}.{statement.target.id}"
                for node in tree.body if isinstance(node, ast.ClassDef)
                and {ast.unparse(base) for base in node.bases} & {"NamedTuple", "_Frozen"}
                for statement in node.body if isinstance(statement, ast.AnnAssign)
            ]
    assert len(fields) > 20
    unread = [field for field in fields if field.rpartition(".")[2] not in read]
    assert not unread, unread
