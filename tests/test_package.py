"""The package's export list, the command line's options, what the test
references may take from the package, the one loop of the relief solvers,
the engine's per-call functions, and test modules that import only from
``helpers``."""

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


def imported_test_modules(source: str) -> set[str]:
    """The ``test_`` modules that ``source`` imports or imports from."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {name for name in names if name.split(".")[0].startswith("test_")}
    return found


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
