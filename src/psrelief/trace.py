"""Run instrumentation: stable trace records, iteration trajectories, and
stage profiles for generated systems.

Trace format (one record per line, stable for golden tests):

    step=<n> membrane=<label> rule=<id> count=<k>
    polarization <label> <0|+|->

Rule lines of a step are ordered by membrane label and rule declaration
order; polarization lines report every membrane whose charge changed in that
step, sorted by label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

from psrelief.builder import COMPARE_STAGE, INIT_STAGE, UPDATE_STAGE, GeneratedSystem, count_reader
from psrelief.engine import DETERMINISTIC, FiringPlan, RunReport, steps
from psrelief.psystem import Configuration, PSystemDef
from psrelief.relief import quantized_halvings

_STAGES = (INIT_STAGE, UPDATE_STAGE, COMPARE_STAGE)  # in step order


class TraceWriter:
    """Observer that appends trace records for every applied step.

    A step's records go to the sink in one ``write``.  The polarization
    lines come from a walk over the membrane labels, made only when the
    step's polarization map differs from the last one written: the engine
    keeps a configuration's map when no rule of the step charges a membrane
    (configurations are values), so such a step skips the walk with one
    identity test."""

    def __init__(self, definition: PSystemDef, sink: IO[str]):
        self._sink = sink
        # rules in line order: by membrane, then declaration order (the sort
        # is stable); a rule's position in it is its sort key
        lines = sorted(definition.rules, key=lambda r: r.membrane)
        self._position = {r.id: i for i, r in enumerate(lines)}
        self._membrane_at = [r.membrane for r in lines]
        self._labels = sorted(definition.parent)
        self._last_pols = Configuration.initial(definition).polarizations

    def __call__(self, step: int, plan: FiringPlan, config: Configuration) -> None:
        counts, position, membrane_at = plan.counts, self._position, self._membrane_at
        out = [f"step={step} membrane={membrane_at[i]} rule={rid} count={counts[rid]}\n"
               for i, rid in sorted((position[rid], rid) for rid in counts)]
        pols, last = config.polarizations, self._last_pols
        if pols is not last and pols != last:
            out += [f"polarization {lab} {pols[lab].value}\n" for lab in self._labels
                    if pols[lab] is not last[lab]]
            self._last_pols = pols
        self._sink.write("".join(out))


@dataclass
class IterationProfile:
    index: int
    initialization: int = 0
    update: int = 0
    comparison: int = 0


@dataclass
class GeneratedRun:
    """Result of an instrumented engine run of a generated system."""

    report: RunReport
    q_trajectory: list[list[list[int]]]  # per iteration, m x n counts (incl. start)
    profiles: list[IterationProfile]

    @property
    def halted(self) -> bool:
        return self.report.halted


def run_generated(
    gen: GeneratedSystem,
    max_iterations: int,
    extra_observer=None,
    policy: str = DETERMINISTIC,
    seed: int = 0,
) -> GeneratedRun:
    """Run a generated system for at most ``max_iterations`` rounds of the
    seed/update/compare loop, recording the per-iteration flow counts and
    stage profiles.

    The returned trajectory starts with the initial counts and, when the run
    halts, ends with the counts decoded from OUTPUT.  A run cut off at the
    iteration limit reports ``halted=False``.  ``extra_observer`` is called
    like an engine observer on every step the report counts.

    A step counts toward the earliest stage among its fired rules.  A step
    that fires only stageless rules (counter plumbing, cleanup) counts toward
    the stage of the iteration's last staged step (trailing cleanup is
    comparison), or toward none before the iteration's first staged step.
    """
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    # the one rule of family 3.26, which fires only at an iteration boundary
    [boundary_id] = gen.rule_index["3.26"]
    # ids of each stage's rules, in _STAGES order; stageless rules left out
    stage_rules = [{rid for family, of in gen.stages.items() if of == stage
                    for rid in gen.rule_index[family]} for stage in _STAGES]
    read_flows = count_reader(gen, "x")
    config = Configuration.initial(gen.definition)
    trajectory = [read_flows(config.contents["INIT"])]
    profiles: list[IterationProfile] = []
    counts = [0, 0, 0]  # steps of the current iteration, in _STAGES order
    stage = None  # position in _STAGES of the iteration's last staged step
    # an iteration takes 3 + (9 + halvings) + 6 steps (7 on the last one),
    # plus a short tail; the budget bounds a run that stops reaching the
    # iteration boundary
    budget = max_iterations * (19 + quantized_halvings(max_iterations)) + 100
    halted = True
    for plan, config in steps(gen.definition, policy, seed):
        fired = plan.counts
        for i, rules in enumerate(stage_rules):
            if not rules.isdisjoint(fired):
                stage = i
                break
        if stage is not None:
            counts[stage] += 1
        at_boundary = boundary_id in fired
        if at_boundary:
            trajectory.append(read_flows(config.contents["INIT"]))
            profiles.append(IterationProfile(len(profiles), *counts))
            counts, stage = [0, 0, 0], None
        if extra_observer is not None:
            extra_observer(config.step_index, plan, config)
        if (at_boundary and len(profiles) >= max_iterations) or config.step_index >= budget:
            halted = False
            break
    report = RunReport.ending_at(gen.definition, config, halted)
    if halted:
        trajectory.append(count_reader(gen, "o")(report.final.contents["OUTPUT"]))
        if any(counts):
            profiles.append(IterationProfile(len(profiles), *counts))
    return GeneratedRun(report=report, q_trajectory=trajectory, profiles=profiles)
