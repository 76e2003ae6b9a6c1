"""The package's export list, the command line's options, what the test
references may take from the package, the one loop of the relief solvers,
the engine's per-call functions, the one owner of the priority order, the
one module that builds multisets unchecked, and test modules that import
only from ``helpers``."""

from __future__ import annotations

import argparse
import ast
import inspect
from pathlib import Path

import psrelief
from psrelief import cli, engine, relief

#: The public names: the engine's whole-run entry points, the relief driver,
#: and the builder.
EXPORTS = [
    "BuildParams", "Configuration", "DefinitionError", "EquilibriumReport", "FiringPlan",
    "GeneratedSystem", "Multiset", "PSystemDef", "Polarization", "ReliefInstance", "Rule",
    "RuleKind", "RunReport", "build", "decode_output", "run", "solve", "step_size", "steps",
    "validate",
]

#: The option strings of each subcommand, so that adding or dropping a flag
#: is a reviewed change here.
OPTIONS = {
    "build": ["--emit", "--instance", "--p"],
    "compare": ["--candidate", "--format", "--out", "--reference", "--timestamp"],
    "oracle": ["--format", "--instance", "--max-iter", "--out", "--p", "--timestamp"],
    "simulate": ["--format", "--instance", "--max-iter", "--out", "--p", "--timestamp"],
    "solve": ["--format", "--instance", "--max-iter", "--out", "--timestamp", "--tol",
              "--variant"],
    "trace": ["--instance", "--max-steps", "--out", "--p", "--policy", "--psys", "--seed"],
}


def test_every_exported_name_resolves():
    missing = [name for name in psrelief.__all__ if not hasattr(psrelief, name)]
    assert missing == []


def test_export_list_is_pinned():
    assert sorted(psrelief.__all__) == EXPORTS


def test_subcommand_options_are_pinned():
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(s for action in sub._actions for s in action.option_strings
                     if s not in ("-h", "--help"))
        for name, sub in subparsers.choices.items()
    }
    assert options == OPTIONS


def dsl_private_names(source: str) -> set[str]:
    """The ``_``-prefixed names of ``psrelief.dsl`` that ``source`` imports or
    reads as attributes of the module."""
    found: set[str] = set()
    modules = {"psrelief.dsl"}
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "psrelief.dsl":
            found |= {alias.name for alias in node.names if alias.name.startswith("_")}
        elif isinstance(node, ast.ImportFrom) and node.module == "psrelief":
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "dsl"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names if alias.name == "psrelief.dsl" and alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and ast.unparse(node.value) in modules:
            found.add(node.attr)
    return found


def test_parse_reference_takes_no_private_name_of_the_reader():
    """The reference reader of tests/helpers.py is written from
    docs/psys-format.md, so it cannot drift back into a copy of the reader
    it checks."""
    assert dsl_private_names((Path(__file__).parent / "helpers.py").read_text()) == set()
    assert dsl_private_names(
        "from psrelief.dsl import ParseResult, _Bail\n"
        "from psrelief import dsl as d\nimport psrelief.dsl\nimport psrelief.dsl as e\n"
        "d._column(x, 1), psrelief.dsl._TOKEN_RE, e._multiset, d.parse, other._word\n"
    ) == {"_Bail", "_column", "_TOKEN_RE", "_multiset"}


def test_relief_steps_share_one_loop_and_no_single_step_entry():
    """Both prepared relief steps iterate through the one ``run`` that
    ``solve`` uses, so a second loop or a step entry point that only tests
    call is a reviewed change here."""
    assert relief._FloatStep.run is relief._QuantizedStep.run
    for step in (relief._FloatStep, relief._QuantizedStep):
        own = {name for cls in step.__mro__[:-1] for name in vars(cls)}
        assert own & {"advance", "__call__", "halve", "pack"} == set(), step


def test_engine_per_call_functions_take_only_what_the_benchmark_passes():
    """``select_firing`` and ``apply_step`` are the benchmark replay's
    calls: always deterministic, and committing the plan unchecked."""
    assert list(inspect.signature(engine.select_firing).parameters) == ["definition", "config"]
    assert list(inspect.signature(engine.apply_step).parameters) == ["definition", "config", "plan"]
    assert not hasattr(engine, "EngineError")


def imported_modules(source: str) -> set[str]:
    """The modules that ``source`` imports or imports from."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
    return found


def imported_test_modules(source: str) -> set[str]:
    """The ``test_`` modules that ``source`` imports or imports from."""
    return {name for name in imported_modules(source) if name.split(".")[0].startswith("test_")}


def test_psystem_alone_orders_the_priority_relation():
    """``psystem._priority_order`` is the one topological pass: it gives
    both the cycle check and the engine's ranks.  A second pass elsewhere
    in the package would take a heap of its own, and the engine's compiled
    rules keep no declaration index to sort by."""
    package = Path(psrelief.__file__).parent
    heaps = sorted(path.name for path in package.glob("*.py") if "heapq" in imported_modules(path.read_text()))
    assert heaps == ["psystem.py"]
    assert "index" not in engine._CRule.__slots__
    assert imported_modules("import heapq as h\nfrom heapq import heappush\nfrom . import x\n") == \
        {"heapq", "x"}


def unchecked_multiset_builds(source: str) -> list[str]:
    """The statements of ``source`` that set a ``_counts`` attribute or call
    ``object.__new__`` on ``Multiset``, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "_counts"
                   for target in targets for t in ast.walk(target)):
                found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__"
              and node.args and ast.unparse(node.args[0]) in ("Multiset", "cls", "multiset.Multiset")):
            found.append(ast.unparse(node))
    return found


def test_multiset_module_alone_builds_multisets_unchecked():
    """A multiset whose counts skip the constructor's checks is made only
    by ``Multiset.adopt`` and ``Multiset.adopt_all``, so the rule that such
    counts are positive and never change afterwards is stated in one
    module."""
    package = Path(psrelief.__file__).parent
    builds = {path.name: unchecked_multiset_builds(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name for name, found in builds.items() if found} == {"multiset.py"}
    assert sorted(unchecked_multiset_builds(
        "m = object.__new__(Multiset)\nm._counts = c\nx._counts[k] += 1\na, b._counts = 1, {}\n"
        "object.__new__(Other)\ny.counts = {}\nself._count = 0\nz = w._counts\n"
    )) == ["a, b._counts = (1, {})", "m._counts = c", "object.__new__(Multiset)", "x._counts[k] += 1"]


def test_test_modules_import_no_other_test_module():
    """What several test modules share lives in tests/helpers.py."""
    tests = sorted(Path(__file__).parent.glob("test_*.py"))
    assert len(tests) > 10
    assert {path.name: imported_test_modules(path.read_text()) for path in tests} == \
        {path.name: set() for path in tests}
    assert imported_test_modules(
        "from test_relief import katrina_shaped\nimport test_stats as t\nimport os, test_dsl.x\n"
        "from helpers import ms\nfrom . import test_cli\n"
    ) == {"test_relief", "test_stats", "test_dsl.x", "test_cli"}
