"""One validator for instance inputs: every route rejects the same files the
same way, and arbitrary damage to an instance file surfaces only as an input
or validation error."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from psrelief.builder import BuildParams, build
from psrelief.cli import main
from psrelief.io import InputError, load_instance
from psrelief.relief import FULL, QUANTIZED, SIMPLIFIED, EquilibriumReport, solve, validate
from psrelief.trace import run_generated

DEMO = json.loads((Path(__file__).parent.parent / "instances" / "demo_2x2.json").read_text())

ROUTES = {
    "solve": ["solve"],
    "oracle": ["oracle", "--p", "2"],
    "simulate": ["simulate", "--p", "2", "--max-iter", "3"],
    "build": ["build", "--p", "2"],
}

BAD = {
    "nan_gamma": ("gamma", float("nan"), "gamma entries must be finite"),
    "inf_s": ("s", float("inf"), "s entries must be finite"),
    "m_true": ("m", True, "m and n must be integers >= 1, got m=True n=2"),
}


#: (route, case) pairs: every instance damage on every route, and p = 0 on
#: the routes that take --p
CASES = [(route, case) for route in sorted(ROUTES) for case in sorted(BAD)]
CASES += [(route, "p_0") for route in ("build", "oracle", "simulate")]


@pytest.mark.parametrize("route, case", CASES, ids=[f"{r}-{c}" for r, c in CASES])
def test_every_route_rejects_with_the_same_message(tmp_path, capsys, route, case):
    doc = copy.deepcopy(DEMO)
    argv = list(ROUTES[route])
    if case == "p_0":
        argv[argv.index("--p") + 1] = "0"
        message = "precision exponent p must be at least 1"
    else:
        key, value, problem = BAD[case]
        if key == "m":
            doc[key] = value
        elif key == "gamma":
            doc[key][0][1] = value
        else:
            doc[key][1] = value
        message = f"invalid instance: {problem}"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    argv += ["--instance", str(path)]
    if route == "build":
        argv += ["--emit", str(tmp_path / "sys.psys")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


#: instances whose float constants or iterates overflow: name -> (edits of
#: demo_2x2, problem).  The first three overflow a derived constant and are
#: invalid on every route; the last has finite constants, and its iterates
#: leave the float range on the solver routes.
OVERFLOW = {
    "cost_a": ({("cost_a", 0, 0): 1e200}, "invalid instance: derived constant 2*cost_a**2 must be finite"),
    "omega": ({("omega", 0): 1e308}, "invalid instance: derived constant omega*gamma/beta must be finite"),
    "vis_k": ({("vis_k", 0): 1e308},
              "invalid instance: derived constant vis_k/(2*sqrt(VISIBILITY_FLOOR)) must be finite"),
    "iterates": ({("omega", 0): 8.9e307, ("d_hi", 0): 1.79e308, ("cost_a", 1, 0): 1e-310},
                 "the {variant} solve leaves the float range within"),
}

OVERFLOW_CASES = [(case, argv) for case in sorted(OVERFLOW) for argv in (
    ["solve", "--variant", "simplified"], ["solve", "--variant", "full"],
    ["oracle", "--p", "2", "--max-iter", "300"])]
OVERFLOW_CASES += [(case, ROUTES[route]) for case in ("cost_a", "omega", "vis_k")
                   for route in ("simulate", "build")]


@pytest.mark.parametrize("case, argv", OVERFLOW_CASES,
                         ids=[f"{c}-{'-'.join(a[:3])}" for c, a in OVERFLOW_CASES])
def test_overflow_is_an_input_error(tmp_path, capsys, case, argv):
    edits, message = OVERFLOW[case]
    doc = copy.deepcopy(DEMO)
    for (key, *index), value in edits.items():
        target = doc[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    argv = argv + ["--instance", str(path)]
    if argv[0] == "build":
        argv += ["--emit", str(tmp_path / "sys.psys")]
    variant = argv[2] if argv[0] == "solve" else QUANTIZED
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {message.format(variant=variant)}") and not out.out


def test_integer_beyond_the_float_range_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(DEMO, s=[10**400, 2.5])))
    assert main(["solve", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:1:1: malformed instance: int too large to convert to float\n")


def test_missing_keys_are_listed_in_field_order(tmp_path, capsys):
    doc = {k: v for k, v in DEMO.items() if k not in ("vis_k", "gamma", "s")}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1:1: missing keys: s, gamma, vis_k\n"


SCALARS = st.one_of(
    st.floats(),
    st.integers(-3, 3),
    st.integers(2**1024, 2**1100),  # beyond the float range
    st.integers(-(2**1100), -(2**1024)),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@st.composite
def damaged_instances(draw) -> dict:
    """demo_2x2 with up to three keys dropped, replaced, or hit in one entry."""
    doc = copy.deepcopy(DEMO)
    for key in draw(st.lists(st.sampled_from(sorted(DEMO)), max_size=3, unique=True)):
        how = draw(st.sampled_from(["drop", "replace", "entry"]))
        if how == "drop":
            del doc[key]
        elif how == "replace" or not isinstance(doc[key], list):
            doc[key] = draw(VALUES)
        else:
            target = doc[key]
            i = draw(st.integers(0, len(target) - 1))
            while isinstance(target[i], list) and draw(st.booleans()):
                target = target[i]
                i = draw(st.integers(0, len(target) - 1))
            target[i] = draw(SCALARS)
    return doc


def _routes(inst):
    yield lambda: solve(inst, SIMPLIFIED, max_iter=5)
    yield lambda: solve(inst, FULL, max_iter=5)
    yield lambda: solve(inst, QUANTIZED, max_iter=5, p=2)
    yield lambda: run_generated(build(BuildParams(instance=inst, p=2)), max_iterations=2)


def _assert_finite(report: EquilibriumReport) -> None:
    arrays = [report.q_star, report.lam, report.lam1, report.lam2, report.stationarity_residuals]
    arrays += report.feasibility_residuals.values()
    assert all(np.isfinite(a).all() for a in arrays), report


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=damaged_instances())
def test_damaged_instances_fail_only_as_input_errors(tmp_path, doc):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    try:
        inst = load_instance(path)
    except InputError:
        return
    problems = validate(inst)
    for route in _routes(inst):
        try:
            result = route()
            message = None
        except ValueError as exc:
            message = str(exc)
        if problems:
            assert message is not None and message.startswith("invalid instance: ")
        elif message is None:
            if isinstance(result, EquilibriumReport):
                _assert_finite(result)
        else:
            # the integer routes also reject a beta that floors to zero at p,
            # and the solvers an iterate that leaves the float range
            assert "floors to zero at p=2" in message or "solve leaves the float range" in message, message
