"""Run instrumentation: stable trace records, and for generated systems the
stream of iterations with their stage profiles and the trajectory collected
from it.

Trace format (one record per line, stable for golden tests):

    step=<n> membrane=<label> rule=<id> count=<k>
    polarization <label> <0|+|->

Rule lines of a step are ordered by membrane label and rule declaration
order; polarization lines report every membrane whose charge changed in that
step, sorted by label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator, NamedTuple

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


#: How an iteration ends: at the step that fires the boundary rule (family
#: 3.26), at the system's halt, or cut off by the step budget before either.
BOUNDARY, HALT, CUT = "boundary", "halt", "cut"


class Iteration(NamedTuple):
    """The t-th iteration (from 1): the configuration that ends it, its stage
    profile and how it ended."""

    t: int
    config: Configuration
    profile: IterationProfile
    end: str


def iterations(gen: GeneratedSystem, max_iterations: int, extra_observer=None,
               policy: str = DETERMINISTIC, seed: int = 0) -> Iterator[Iteration]:
    """Run a generated system for at most ``max_iterations`` rounds of the
    seed/update/compare loop, yielding one record per iteration, never one
    per step: one per boundary, then one for the halting iteration (its
    configuration holds OUTPUT) or for a cut.  An iteration takes 3 + (9 +
    halvings) + 6 steps (7 on the last one), plus a short tail; the step
    budget bounds a run that stops reaching the boundary.  ``extra_observer``
    is called like an engine observer on every step, before the record of
    the iteration that the step ends.

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
    config = Configuration.initial(gen.definition)
    t = 0  # iterations ended
    counts = [0, 0, 0]  # steps of the current iteration, in _STAGES order
    stage = None  # position in _STAGES of the iteration's last staged step
    budget = max_iterations * (19 + quantized_halvings(max_iterations)) + 100
    for plan, config in steps(gen.definition, policy, seed):
        fired = plan.counts
        for i, rules in enumerate(stage_rules):
            if not rules.isdisjoint(fired):
                stage = i
                break
        if stage is not None:
            counts[stage] += 1
        if extra_observer is not None:
            extra_observer(config.step_index, plan, config)
        if boundary_id in fired:
            t += 1
            yield Iteration(t, config, IterationProfile(t - 1, *counts), BOUNDARY)
            if t >= max_iterations or config.step_index >= budget:
                return
            counts, stage = [0, 0, 0], None
        elif config.step_index >= budget:
            yield Iteration(t + 1, config, IterationProfile(t, *counts), CUT)
            return
    yield Iteration(t + 1, config, IterationProfile(t, *counts), HALT)


@dataclass
class GeneratedRun:
    """Result of an instrumented engine run of a generated system."""

    report: RunReport
    q_trajectory: list[list[list[int]]]  # per iteration, m x n counts (incl. start)
    profiles: list[IterationProfile]

    @property
    def halted(self) -> bool:
        return self.report.halted


def run_generated(gen: GeneratedSystem, max_iterations: int, extra_observer=None,
                  policy: str = DETERMINISTIC, seed: int = 0) -> GeneratedRun:
    """Collect ``iterations`` (same arguments): the flow counts at the start
    and at every boundary, then the counts decoded from OUTPUT if the run
    halts, and the profiles of every iteration that ends, bar an empty last
    one.  A run cut off by the iteration limit or the step budget reports
    ``halted=False``."""
    read_flows = count_reader(gen, "x")
    trajectory = [read_flows(Configuration.initial(gen.definition).contents["INIT"])]
    profiles: list[IterationProfile] = []
    for _, config, profile, end in iterations(gen, max_iterations, extra_observer, policy, seed):
        if end == BOUNDARY:
            trajectory.append(read_flows(config.contents["INIT"]))
            profiles.append(profile)
        elif end == HALT:
            trajectory.append(count_reader(gen, "o")(config.contents["OUTPUT"]))
            if profile.initialization or profile.update or profile.comparison:
                profiles.append(profile)
    report = RunReport.ending_at(gen.definition, config, end == HALT)
    return GeneratedRun(report=report, q_trajectory=trajectory, profiles=profiles)
