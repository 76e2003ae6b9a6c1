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

    def total(self) -> int:
        return self.initialization + self.update + self.comparison


@dataclass
class GeneratedRun:
    """Result of an instrumented engine run of a generated system."""

    report: RunReport
    q_trajectory: list[list[list[int]]]  # per iteration, m x n counts (incl. start)
    profiles: list[IterationProfile]

    @property
    def halted(self) -> bool:
        return self.report.halted


class _Recorder:
    def __init__(self, gen: GeneratedSystem):
        # the one rule of family 3.26, which fires only at an iteration boundary
        [self.boundary_id] = gen.rule_index["3.26"]
        # stage -> ids of its rules, in _STAGES order; stageless rules left out
        self._stage_rules: dict[str, set[str]] = {stage: set() for stage in _STAGES}
        for rid, stage in gen.stage_of.items():
            if stage is not None:
                self._stage_rules[stage].add(rid)
        self.q_trajectory: list[list[list[int]]] = []
        self.profiles: list[IterationProfile] = []
        self._current = IterationProfile(index=0)
        self.read_flows = count_reader(gen, "x")
        self._read_outputs = count_reader(gen, "o")

    def _step_stage(self, plan: FiringPlan) -> str | None:
        """Earliest stage among the fired rules; rules that belong to no
        stage (counter plumbing, cleanup) never define the stage of a step."""
        for stage, rules in self._stage_rules.items():
            if not rules.isdisjoint(plan.counts):
                return stage
        return None

    def __call__(self, plan: FiringPlan, config: Configuration) -> bool:
        """Record one committed step; true when it ends an iteration."""
        stage = self._step_stage(plan)
        if stage == INIT_STAGE:
            self._current.initialization += 1
        elif stage == UPDATE_STAGE:
            self._current.update += 1
        elif stage == COMPARE_STAGE:
            self._current.comparison += 1
        else:
            # counter or cleanup activity only; attribute to the stage the
            # iteration is currently in (trailing cleanup is comparison)
            if self._current.comparison:
                self._current.comparison += 1
            elif self._current.update:
                self._current.update += 1
            elif self._current.initialization:
                self._current.initialization += 1
        if self.boundary_id not in plan.counts:
            return False
        self.q_trajectory.append(self.read_flows(config.contents["INIT"]))
        self.profiles.append(self._current)
        self._current = IterationProfile(index=self._current.index + 1)
        return True

    def finish(self, report: RunReport) -> None:
        if report.halted:
            self.q_trajectory.append(self._read_outputs(report.final.contents["OUTPUT"]))
            if self._current.total():
                self.profiles.append(self._current)


def run_generated(
    gen: GeneratedSystem,
    max_iterations: int,
    extra_observer=None,
    policy: str = DETERMINISTIC,
    seed: int = 0,
) -> GeneratedRun:
    """Run a generated system for at most ``max_iterations`` rounds of the
    seed/update/compare loop, recording the per-iteration flow counts.

    The returned trajectory starts with the initial counts and, when the run
    halts, ends with the counts decoded from OUTPUT.  A run cut off at the
    iteration limit reports ``halted=False``.  ``extra_observer`` is called
    like an engine observer on every step the report counts.
    """
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    recorder = _Recorder(gen)
    config = Configuration.initial(gen.definition)
    start = recorder.read_flows(config.contents["INIT"])
    # an iteration takes 3 + (9 + halvings) + 6 steps (7 on the last one),
    # plus a short tail; the budget bounds a run that stops reaching the
    # iteration boundary
    budget = max_iterations * (19 + quantized_halvings(max_iterations)) + 100
    halted = True
    for plan, config in steps(gen.definition, policy, seed):
        at_boundary = recorder(plan, config)
        if extra_observer is not None:
            extra_observer(config.step_index, plan, config)
        if (at_boundary and len(recorder.q_trajectory) >= max_iterations) or config.step_index >= budget:
            halted = False
            break
    report = RunReport.ending_at(gen.definition, config, halted)
    recorder.finish(report)
    trajectory = [start] + recorder.q_trajectory
    return GeneratedRun(report=report, q_trajectory=trajectory, profiles=recorder.profiles)
