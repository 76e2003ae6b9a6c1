"""One validator for instance inputs: every route rejects the same files the
same way, and arbitrary damage to an instance file surfaces only as an input
or validation error."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from psrelief.builder import BuildParams, build
from psrelief.cli import main
from psrelief.io import InputError, load_instance
from psrelief.relief import FULL, QUANTIZED, SIMPLIFIED, solve, validate
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


def test_missing_keys_are_listed_in_field_order(tmp_path, capsys):
    doc = {k: v for k, v in DEMO.items() if k not in ("vis_k", "gamma", "s")}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1:1: missing keys: s, gamma, vis_k\n"


SCALARS = st.one_of(
    st.floats(),
    st.integers(-3, 3),
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
            route()
            message = None
        except ValueError as exc:
            message = str(exc)
        if problems:
            assert message is not None and message.startswith("invalid instance: ")
        else:
            # the integer routes also reject a beta that floors to zero at p
            assert message is None or "floors to zero at p=2" in message, message
