"""Membrane-computing engine and equilibrium solvers for relief allocation games.

The package has five parts:

* ``psrelief.engine`` / ``psrelief.psystem`` -- transition P systems with
  membrane polarization, executed under maximal parallelism with weak rule
  priorities.
* ``psrelief.dsl`` -- a textual ``.psys`` format with parser and canonical
  serializer.
* ``psrelief.relief`` -- the relief allocation game, its projected Euler
  solvers (floating point and integer-quantized), and diagnostics.
* ``psrelief.builder`` -- mechanical generation of the membrane system that
  computes the game equilibrium at a fixed decimal precision.
* ``psrelief.cli`` -- command line front end (solve / simulate / oracle /
  build / compare / trace).
"""

from psrelief.multiset import Multiset
from psrelief.psystem import (
    Configuration,
    DefinitionError,
    Polarization,
    PSystemDef,
    Rule,
    RuleKind,
)
from psrelief.engine import FiringPlan, RunReport, apply_step, run, select_firing, steps
from psrelief.relief import (
    EquilibriumReport,
    ReliefInstance,
    solve,
    step_size,
    validate,
)
from psrelief.builder import BuildParams, GeneratedSystem, build, decode_output

__all__ = [
    "Multiset",
    "Polarization",
    "Rule",
    "RuleKind",
    "PSystemDef",
    "Configuration",
    "DefinitionError",
    "FiringPlan",
    "RunReport",
    "select_firing",
    "apply_step",
    "run",
    "steps",
    "ReliefInstance",
    "EquilibriumReport",
    "validate",
    "step_size",
    "solve",
    "BuildParams",
    "GeneratedSystem",
    "build",
    "decode_output",
]

__version__ = "0.1.0"
