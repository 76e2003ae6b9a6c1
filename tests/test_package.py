"""The package's export list, the command line's options, what the test
references may take from the package, and the one loop of the relief
solvers."""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

import psrelief
from psrelief import cli, relief

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
