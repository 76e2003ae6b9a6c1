"""Trace record format and instrumented runs."""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import pytest

from psrelief import cli, dsl
from psrelief.builder import BuildParams, build
from psrelief.engine import DETERMINISTIC, SEEDED_RANDOM, run, steps
from psrelief.io import load_instance
from psrelief.psystem import Configuration
from psrelief.trace import _STAGES, TraceWriter, _Recorder, run_generated

from helpers import derived_1x1, reference_apply, reference_select

GOLDEN_SYSTEM = """\
membrane 1
membrane inner in 1
output environment
init 1: a^2 u
rule grow: [a -> b^2]'0 @ 1
rule send: u []'0 -> [v]'- @ inner
rule back: [v]'- -> w []'0 @ inner
"""

GOLDEN_TRACE = """\
step=1 membrane=1 rule=grow count=2
step=1 membrane=inner rule=send count=1
polarization inner -
step=2 membrane=inner rule=back count=1
polarization inner 0
"""


def test_trace_format_is_stable():
    parsed = dsl.parse(GOLDEN_SYSTEM)
    assert parsed.ok
    sink = io.StringIO()
    report = run(parsed.definition, max_steps=20, observer=TraceWriter(parsed.definition, sink))
    assert report.halted and report.steps == 2
    assert sink.getvalue() == GOLDEN_TRACE


def test_trace_of_worked_example():
    parsed = dsl.parse(
        "membrane 1\noutput environment\ninit 1: a^3 d\n"
        "rule r1: [a^2 -> b]'0 @ 1\nrule r2: [a -> c]'0 @ 1\nrule r3: [d -> e]'0 @ 1\n"
        "prio r1 > r2 @ 1\n"
    )
    sink = io.StringIO()
    run(parsed.definition, max_steps=20, observer=TraceWriter(parsed.definition, sink))
    assert sink.getvalue() == (
        "step=1 membrane=1 rule=r1 count=1\n"
        "step=1 membrane=1 rule=r2 count=1\n"
        "step=1 membrane=1 rule=r3 count=1\n"
    )


@pytest.mark.parametrize("policy, seed", [(DETERMINISTIC, 0), (SEEDED_RANDOM, 31)])
def test_steps_yield_the_steps_run_observes(policy, seed):
    definition = dsl.parse(GOLDEN_SYSTEM).definition
    observed = []
    report = run(definition, policy=policy, seed=seed, max_steps=20,
                 observer=lambda step, plan, config: observed.append((step, plan, config.digest())))
    yielded = [(config.step_index, plan, config.digest()) for plan, config in steps(definition, policy, seed)]
    assert len(yielded) == report.steps
    assert yielded == observed


@pytest.mark.parametrize("max_iterations, halts", [(5, False), (200, True)])
def test_extra_observer_sees_every_counted_step(max_iterations, halts):
    gen = build(BuildParams(instance=derived_1x1(), p=3))
    seen = []
    res = run_generated(gen, max_iterations, extra_observer=lambda step, plan, config: seen.append(step))
    assert res.halted is halts
    assert seen == list(range(1, res.report.steps + 1))


def test_step_stage_is_the_earliest_stage_among_fired_rules():
    # Reference from ``stage_of`` alone: the first stage in step order that
    # some fired rule belongs to, or None when every fired rule is stageless.
    gen = build(BuildParams(instance=derived_1x1(), p=3))
    recorder = _Recorder(gen)
    got, want = [], []
    for plan, _ in steps(gen.definition):
        fired = {gen.stage_of[rid] for rid in plan.counts}
        want.append(next((stage for stage in _STAGES if stage in fired), None))
        got.append(recorder._step_stage(plan))
    assert len(got) == 451
    assert got == want
    assert want[-1] is None and set(want) == {*_STAGES, None}


DEMO_2X2 = Path(__file__).resolve().parent.parent / "instances" / "demo_2x2.json"


# sha256 of ``trace --instance instances/demo_2x2.json --p 2`` output.  The
# deterministic digest was computed with the engine that rescanned every
# guarded rule per step and committed on Multiset copies, before the
# key-symbol candidate gather and the count-dict commit replaced it.  The
# seeded-random digest (seed 5, 199 steps) is that of the stream in which each
# step shuffles its candidates (docs/trace-format.md); it equals the trace of
# the ``reference_select`` and ``reference_apply`` chain, which
# ``test_seeded_pin_is_the_reference_chain`` recomputes.
DETERMINISTIC_DIGEST = "be19557f6459cc70b84d9fb362c70896fa94f8dbc2261259ce912038b3ee72ee"
SEEDED_DIGEST = "189eed07f838a3572e11c9be2f94e0b1675770c59d4957628324737312d0c7c8"


@pytest.mark.parametrize("policy_args, digest", [
    ([], DETERMINISTIC_DIGEST),
    (["--policy", SEEDED_RANDOM, "--seed", "5"], SEEDED_DIGEST),
])
def test_demo_2x2_trace_is_pinned(tmp_path, policy_args, digest):
    out = tmp_path / "trace.txt"
    rc = cli.main(["trace", "--instance", str(DEMO_2X2), "--p", "2", "--out", str(out)] + policy_args)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The same digests through the .psys route: ``build --emit`` then
# ``trace --psys``.  The engine keys each rule on its first left-hand-side
# symbol, so this also pins the reader's rule order and multiset key order.
@pytest.mark.parametrize("policy_args, digest", [
    ([], DETERMINISTIC_DIGEST),
    (["--policy", SEEDED_RANDOM, "--seed", "5"], SEEDED_DIGEST),
])
def test_demo_2x2_psys_trace_is_pinned(tmp_path, policy_args, digest):
    psys = tmp_path / "demo_2x2.psys"
    out = tmp_path / "trace.txt"
    assert cli.main(["build", "--instance", str(DEMO_2X2), "--p", "2", "--emit", str(psys)]) == 0
    rc = cli.main(["trace", "--psys", str(psys), "--out", str(out)] + policy_args)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_seeded_pin_is_the_reference_chain():
    definition = build(BuildParams(instance=load_instance(DEMO_2X2), p=2)).definition
    sink = io.StringIO()
    writer = TraceWriter(definition, sink)
    config = Configuration.initial(definition)
    while plan := reference_select(definition, config, SEEDED_RANDOM, (5 << 20) ^ config.step_index):
        config = reference_apply(definition, config, plan)
        writer(config.step_index, plan, config)
    assert config.step_index == 199
    assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == SEEDED_DIGEST


@pytest.mark.parametrize("max_iterations", [0, -5])
def test_run_generated_rejects_non_positive_iteration_limit(max_iterations):
    gen = build(BuildParams(instance=derived_1x1(), p=3))
    with pytest.raises(ValueError, match="^max_iterations must be positive$"):
        run_generated(gen, max_iterations)
