"""The package's export list."""

from __future__ import annotations

import psrelief

#: The public names: the engine's whole-run entry points and its one per-call
#: pair, the relief driver, and the builder.
EXPORTS = [
    "BuildParams", "Configuration", "DefinitionError", "EquilibriumReport", "FiringPlan",
    "GeneratedSystem", "Multiset", "PSystemDef", "Polarization", "ReliefInstance", "Rule",
    "RuleKind", "RunReport", "apply_step", "build", "decode_output", "run", "select_firing",
    "solve", "step_size", "steps", "validate",
]


def test_every_exported_name_resolves():
    missing = [name for name in psrelief.__all__ if not hasattr(psrelief, name)]
    assert missing == []


def test_export_list_is_pinned():
    assert sorted(psrelief.__all__) == EXPORTS
