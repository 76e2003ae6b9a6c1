"""Trace record format and instrumented runs."""

from __future__ import annotations

import hashlib
import io
import random
from pathlib import Path

import pytest

from psrelief import cli, dsl
from psrelief.builder import COMPARE_STAGE, INIT_STAGE, BuildParams, GeneratedSystem, build, count_reader
from psrelief.engine import DETERMINISTIC, SEEDED_RANDOM, run, steps
from psrelief.io import load_instance
from psrelief.multiset import Multiset
from psrelief.psystem import Configuration, PSystemDef
from psrelief.trace import _STAGES, TraceWriter, run_generated

from helpers import ReferenceTraceWriter, derived_1x1, random_small_system, reference_apply, reference_select

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


DEMO_2X2 = Path(__file__).resolve().parent.parent / "instances" / "demo_2x2.json"


def reference_recording(gen, max_iterations: int, policy: str, seed: int):
    """The trajectory, profiles and halt flag of a run, recorded by the rule
    that ``run_generated``'s running stage must agree with: a step counts
    toward the earliest stage among its fired rules; a step that fires only
    stageless rules counts toward the latest stage of the iteration with a
    non-zero count, or toward none."""
    stage_of = {rid: stage for family, stage in gen.stages.items() for rid in gen.rule_index[family]}
    [boundary] = gen.rule_index["3.26"]
    read_flows, read_outputs = count_reader(gen, "x"), count_reader(gen, "o")
    config = Configuration.initial(gen.definition)
    trajectory, profiles, current = [read_flows(config.contents["INIT"])], [], [0, 0, 0]
    for plan, config in steps(gen.definition, policy, seed):
        fired = {stage_of[rid] for rid in plan.counts}
        staged = [i for i, stage in enumerate(_STAGES) if stage in fired]
        nonzero = [i for i, count in enumerate(current) if count]
        if staged or nonzero:
            current[staged[0] if staged else nonzero[-1]] += 1
        if boundary in plan.counts:
            trajectory.append(read_flows(config.contents["INIT"]))
            profiles.append((len(profiles), *current))
            current = [0, 0, 0]
            if len(profiles) == max_iterations:
                return trajectory, profiles, False
    trajectory.append(read_outputs(config.contents["OUTPUT"]))
    if any(current):
        profiles.append((len(profiles), *current))
    return trajectory, profiles, True


def _rows(profiles):
    return [(prof.index, prof.initialization, prof.update, prof.comparison) for prof in profiles]


@pytest.mark.parametrize("instance, p, max_iterations, policy, seed", [
    ("derived_1x1", 3, 200, DETERMINISTIC, 0),
    ("derived_1x1", 3, 7, DETERMINISTIC, 0),
    ("demo_2x2", 5, 200, DETERMINISTIC, 0),
    ("demo_2x2", 5, 200, SEEDED_RANDOM, 5),
])
def test_run_generated_records_like_the_reference(instance, p, max_iterations, policy, seed):
    inst = derived_1x1() if instance == "derived_1x1" else load_instance(DEMO_2X2)
    gen = build(BuildParams(instance=inst, p=p))
    res = run_generated(gen, max_iterations, policy=policy, seed=seed)
    trajectory, profiles, halted = reference_recording(gen, max_iterations, policy, seed)
    assert res.halted is halted is (max_iterations == 200)
    assert res.q_trajectory == trajectory
    assert _rows(res.profiles) == profiles


def test_run_generated_places_stageless_steps():
    # A hand-made system whose iterations take a stageless step after their
    # first staged step, which counts toward that stage, and open with one
    # (no iteration of the generated systems these tests run does), which
    # counts toward none.
    parsed = dsl.parse(
        "membrane skin\nmembrane INIT in skin\noutput environment\ninit INIT: a\n"
        "rule s1_1: [a -> b]'0 @ INIT\nrule s4_1__b: [b -> e]'0 @ INIT\n"
        "rule s3_26: [e -> c]'0 @ INIT\nrule s4_1__c: [c -> a]'0 @ INIT\n"
    )
    gen = GeneratedSystem(parsed.definition,
                          rule_index={"1.1": ["s1_1"], "4.1": ["s4_1__b", "s4_1__c"], "3.26": ["s3_26"]},
                          stages={"1.1": INIT_STAGE, "4.1": None, "3.26": COMPARE_STAGE}, m=1, n=1, p=0)
    want = [(0, 2, 0, 1), (1, 2, 0, 1)]
    assert reference_recording(gen, 2, DETERMINISTIC, 0)[1] == want
    res = run_generated(gen, 2)
    assert res.report.steps == 7 and not res.halted
    assert _rows(res.profiles) == want


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


def _both_traces(definition, policy: str, seed: int, max_steps: int | None = None):
    """The trace of ``steps(definition, policy, seed)`` from ``TraceWriter``
    and from the per-line reference, and how many membranes each step
    charged."""
    got, want = io.StringIO(), io.StringIO()
    writers = TraceWriter(definition, got), ReferenceTraceWriter(definition, want)
    charged, last = [], Configuration.initial(definition).polarizations
    for plan, config in steps(definition, policy, seed):
        charged.append(sum(config.polarizations[lab] is not last[lab] for lab in last))
        last = config.polarizations
        for writer in writers:
            writer(config.step_index, plan, config)
        if config.step_index == max_steps:
            break
    return got.getvalue(), want.getvalue(), charged


@pytest.mark.parametrize("policy, seed", [(DETERMINISTIC, 0), (SEEDED_RANDOM, 5)])
def test_writer_equals_reference_writer_on_demo_2x2_to_halt(policy, seed):
    definition = build(BuildParams(instance=load_instance(DEMO_2X2), p=5)).definition
    got, want, charged = _both_traces(definition, policy, seed)
    assert len(charged) == 1603
    assert got == want


def test_writer_equals_reference_writer_on_random_systems():
    """Random small systems whose polarization-changing rules sit on two
    membranes or more, each region seeded with up to 30 of every consumed
    symbol so that the runs go on: steps that charge no membrane, one, and
    several all occur."""
    rng = random.Random(32)
    kinds = {0: 0, 1: 0, 2: 0}
    draws = 0
    while draws < 60:
        d = random_small_system(rng)
        if len({r.membrane for r in d.rules if r.changes_polarization}) < 2:
            continue
        draws += 1
        symbols = sorted({sym for r in d.rules for sym in r.lhs})
        d = PSystemDef(parent=d.parent, rules=d.rules, priorities=d.priorities, output=d.output,
                       initial={lab: Multiset({sym: rng.randint(0, 30) for sym in symbols})
                                for lab in d.parent})
        for policy, seed in ((DETERMINISTIC, 0), (SEEDED_RANDOM, draws)):
            got, want, charged = _both_traces(d, policy, seed, max_steps=10)
            assert got == want, (draws, policy)
            for c in charged:
                kinds[min(c, 2)] += 1
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("max_iterations", [0, -5])
def test_run_generated_rejects_non_positive_iteration_limit(max_iterations):
    gen = build(BuildParams(instance=derived_1x1(), p=3))
    with pytest.raises(ValueError, match="^max_iterations must be positive$"):
        run_generated(gen, max_iterations)
