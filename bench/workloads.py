"""The four benchmark workloads.

Each workload mirrors one or more CLI paths (``simulate``, ``oracle``,
``solve``, ``build``, ``trace``) and drives them through the public functions
the CLI calls, so that set-up, steps and checks are timed apart without
touching the program.  A pass runs the workload's routes once; its output
check runs after the pass and outside its timed region.

The benchmark calls ``relief.validate`` and ``relief.fixed_point_constants``
once per route itself, as ``builder.build`` and ``relief.solve`` do inside,
so that both show as layers of their own.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from psrelief import builder, dsl, engine, io as pio, relief, trace as ptrace
from psrelief.psystem import Configuration

import gen
from spans import Tracer

#: CLI defaults the routes reproduce.
TOL = 1e-5
MAX_ITER = 100_000
MAX_STEPS = 10_000

# Pinned at the commit that introduced the benchmark.  The relabelling seed
# permutes organisations and locations, which leaves all of these unchanged.
HALT_2X2_TRACE_SHA256 = "6b92aeb445894ea2a37d6d357e2619f6087fc864f8c7d1da3df7c3b0f0bb3248"
HALT_2X2_ITERATIONS = 89
SOLVE_10X30_ITERATIONS = {"simplified": 11265, "full": 11265, "quantized": 5121}
PSYS_10X30_RULES = 23807
PSYS_10X30_PRIORITY_PAIRS = 10190


@dataclass
class PassOutput:
    """What one pass produced, for the metrics; workloads attach what their
    check needs."""

    counts: dict[str, float] = field(default_factory=dict)
    probes: list["StepProbe"] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


class StepProbe:
    """Engine observer.  The first step ends the route's set-up; the time
    between two calls, less the observer's own, is engine time.  With
    tracing on it also counts fired rules and keeps every ``keep_every``-th
    configuration for the select/apply replay.  ``inner`` is the route's own
    observer (the trace writer), timed as span ``trace.observer``."""

    def __init__(self, tracer: Tracer, definition, keep_every: int, inner=None):
        self.tracer = tracer
        self.definition = definition
        self.keep_every = keep_every
        self.inner = inner
        self.steps = 0
        self.engine_s = 0.0  # steps 2 onwards; step 1 also pays compile
        self.fired = 0
        self.samples: list[Configuration] = []
        self._resumed = 0.0

    def __call__(self, step: int, plan: engine.FiringPlan, config: Configuration) -> None:
        now = perf_counter()
        if self.steps == 0:
            self.tracer.setup_done()
        else:
            self.engine_s += now - self._resumed
        self.steps += 1
        if self.tracer.enabled:
            self.fired += len(plan.counts)
            if step % self.keep_every == 0:
                self.samples.append(config)
        if self.inner is not None:
            start = perf_counter()
            self.inner(step, plan, config)
            self.tracer.leaf("trace.observer", start, perf_counter())
        self.tracer.checkpoint()
        self._resumed = perf_counter()


# ---------------------------------------------------------------------------
# Routes: one CLI path each
# ---------------------------------------------------------------------------


def _load(t: Tracer, path: Path, p: int | None):
    with t.span("io.load_instance"):
        inst = pio.load_instance(path)
    with t.span("relief.validate"):
        violations = relief.validate(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))
    if p is not None:
        with t.span("relief.constants"):
            relief.fixed_point_constants(inst, p)
    return inst


def route_simulate(t: Tracer, out: PassOutput, path: Path, p: int, max_iter: int, keep_every: int):
    """``psrelief simulate``: build the system and run it on the engine."""
    t.begin_route()
    inst = _load(t, path, p)
    with t.span("builder.build"):
        gen_sys = builder.build(builder.BuildParams(instance=inst, p=p))
    probe = StepProbe(t, gen_sys.definition, keep_every)
    with t.span("engine.run_generated"):
        result = ptrace.run_generated(gen_sys, max_iterations=max_iter, extra_observer=probe)
    _count_steps(out, probe)
    q = None
    if result.halted:
        with t.span("builder.decode"):
            q = builder.decode_output(result.report.final, gen_sys)
    _count_system(out, gen_sys.definition)
    out.counts["simulate.iterations"] = len(result.q_trajectory) - 1
    return result, q


def route_solve(t: Tracer, out: PassOutput, path: Path, variant: str, p: int | None = None):
    """``psrelief solve`` (float variants) or ``psrelief oracle`` (quantized)."""
    t.begin_route()
    inst = _load(t, path, p)
    t.setup_done()
    with t.span(f"relief.solve_{variant}"):
        report = relief.solve(inst, variant=variant, tol=TOL, max_iter=MAX_ITER, p=p)
    out.counts[f"relief.{variant}_iterations"] = report.iterations
    if not report.converged:
        out.problems.append(f"{variant} did not converge (exit status 1)")
    return report


def route_build(t: Tracer, out: PassOutput, path: Path, p: int, emit: Path) -> str:
    """``psrelief build --emit``: the whole route is set-up."""
    t.begin_route()
    inst = _load(t, path, p)
    with t.span("builder.build"):
        gen_sys = builder.build(builder.BuildParams(instance=inst, p=p))
    with t.span("dsl.serialize"):
        text = dsl.serialize(gen_sys.definition)
        emit.write_text(text, encoding="utf-8")
    t.setup_done()
    _count_system(out, gen_sys.definition)
    out.counts["dsl.bytes"] = len(text.encode("utf-8"))
    return text


def route_trace(t: Tracer, out: PassOutput, psys: Path, trace_out: Path,
                max_steps: int, keep_every: int):
    """``psrelief trace --psys``: parse a .psys file and run it with the
    trace writer on."""
    t.begin_route()
    with t.span("dsl.parse"):
        text = psys.read_text(encoding="utf-8")
        parsed = dsl.parse(dsl.SourceDocument(text=text, origin=str(psys)))
    if not parsed.ok:
        raise ValueError(f"{psys}: {parsed.diagnostics[0]}")
    definition = parsed.definition
    with t.span("trace.open"):
        sink = open(trace_out, "w", encoding="utf-8")
        writer = ptrace.TraceWriter(definition, sink)
    probe = StepProbe(t, definition, keep_every, inner=writer)
    try:
        with t.span("engine.run"):
            report = engine.run(definition, max_steps=max_steps, observer=probe)
    finally:
        with t.span("trace.close"):
            sink.close()
    _count_steps(out, probe)
    out.counts["trace.bytes"] = trace_out.stat().st_size
    return parsed, report


def _count_steps(out: PassOutput, probe: StepProbe) -> None:
    out.probes.append(probe)
    out.counts["engine.steps"] = out.counts.get("engine.steps", 0) + probe.steps


def _count_system(out: PassOutput, definition) -> None:
    out.counts["builder.rules"] = len(definition.rules)
    out.counts["builder.priority_pairs"] = len(definition.priorities)


def trajectory_problems(got: list, want: list) -> list[str]:
    """Differences between an engine trajectory and the oracle's, count for
    count; empty when they agree."""
    if len(got) != len(want):
        return [f"trajectory has {len(got)} entries, oracle has {len(want)}"]
    for it, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return [f"iteration {it}: engine counts {g} differ from oracle counts {w}"]
    return []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: keep every n-th engine configuration for the select/apply replay
    keep_every = 1 << 30
    #: work rates printed for this workload (see worker.RATES)
    rates: tuple[str, ...] = ()

    def params(self) -> dict:
        return {}

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the instance files and compute references; not timed."""

    def run_pass(self, t: Tracer) -> PassOutput:
        raise NotImplementedError

    def check(self, out: PassOutput) -> list[str]:
        """Output problems of a pass (empty list: correct)."""
        return list(out.problems)


class Simulate8x8(Workload):
    # The engine route on a mid-size system: 5,545 rules of which ~3% fire
    # per step, so the applicability scan dominates.  Checked count for count
    # against the integer oracle.
    name = "simulate_8x8"
    m, n, p, iterations = 8, 8, 3, 30
    keep_every = 60
    rates = ("steps_per_s", "simulate_iterations_per_s")

    def params(self):
        return {"m": self.m, "n": self.n, "p": self.p, "iterations": self.iterations}

    def prepare(self, workdir, seed):
        self.path = gen.write_instance(gen.ladder_instance(self.m, self.n, seed),
                                       workdir / "katrina_8x8.json")
        inst = pio.load_instance(self.path)
        self.reference, _ = relief.quantized_trajectory(inst, self.p, self.iterations)

    def run_pass(self, t):
        out = PassOutput()
        result, _ = route_simulate(t, out, self.path, self.p, self.iterations, self.keep_every)
        out.trajectory = result.q_trajectory
        return out

    def check(self, out):
        return super().check(out) + trajectory_problems(out.trajectory, self.reference)


class Halt2x2(Workload):
    # The four CLI paths on the small demo system, each to halt: the same
    # engine with 9x fewer rules, so per-step fixed costs (apply, configuration
    # copy, the trace writer) and the small build/.psys front end weigh more.
    name = "halt_2x2"
    p = 5
    keep_every = 200
    rates = ("steps_per_s", "simulate_iterations_per_s", "oracle_iterations_per_s")

    def params(self):
        return {"instance": "demo_2x2", "p": self.p}

    def prepare(self, workdir, seed):
        self.path = gen.write_instance(gen.DEMO_2X2, workdir / "demo_2x2.json")
        self.psys = workdir / "demo_2x2.psys"
        self.trace_out = workdir / "demo_2x2.trace"

    def run_pass(self, t):
        out = PassOutput()
        sim, out.q_sim = route_simulate(t, out, self.path, self.p, MAX_ITER, self.keep_every)
        out.halted = sim.halted
        oracle = route_solve(t, out, self.path, relief.QUANTIZED, self.p)
        out.q_oracle = oracle.q_star
        route_build(t, out, self.path, self.p, self.psys)
        _, report = route_trace(t, out, self.psys, self.trace_out, MAX_STEPS, self.keep_every)
        out.trace_halted = report.halted
        return out

    def check(self, out):
        problems = super().check(out)
        if not out.halted or out.q_sim is None:
            return problems + ["simulate did not halt (exit status 1)"]
        if pio.format_matrix_csv(out.q_sim) != pio.format_matrix_csv(out.q_oracle):
            problems.append("simulate table differs from oracle table")
        for key in ("simulate.iterations", "relief.quantized_iterations"):
            if out.counts[key] != HALT_2X2_ITERATIONS:
                problems.append(f"{key} is {out.counts[key]}, pinned {HALT_2X2_ITERATIONS}")
        if not out.trace_halted:
            problems.append("trace did not halt (exit status 1)")
        digest = hashlib.sha256(self.trace_out.read_bytes()).hexdigest()
        if digest != HALT_2X2_TRACE_SHA256:
            problems.append(f"trace sha256 {digest} differs from the pinned one")
        return problems


class Solve10x30(Workload):
    # The relief solvers alone, each to convergence on the largest ladder
    # instance.  The engine does no work here, so an engine change must read
    # "no change" on this workload.
    name = "solve_10x30"
    m, n, oracle_p = 10, 30, 3
    rates = ("oracle_iterations_per_s", "solve_iterations_per_s")

    def params(self):
        return {"m": self.m, "n": self.n, "oracle_p": self.oracle_p, "tol": TOL}

    def prepare(self, workdir, seed):
        self.path = gen.write_instance(gen.ladder_instance(self.m, self.n, seed),
                                       workdir / "katrina_10x30.json")

    def run_pass(self, t):
        out = PassOutput()
        route_solve(t, out, self.path, relief.SIMPLIFIED)
        route_solve(t, out, self.path, relief.FULL)
        route_solve(t, out, self.path, relief.QUANTIZED, self.oracle_p)
        return out

    def check(self, out):
        problems = super().check(out)
        for variant, want in SOLVE_10X30_ITERATIONS.items():
            got = out.counts[f"relief.{variant}_iterations"]
            if got != want:
                problems.append(f"{variant} took {got} iterations, pinned {want}")
        return problems


class Psys10x30(Workload):
    # The front end on the largest system: build, serialize, parse and engine
    # compile do almost all the work.  They are under 5% of every other
    # workload and would otherwise go unmeasured.
    name = "psys_10x30"
    m, n, p = 10, 30, 5

    def params(self):
        return {"m": self.m, "n": self.n, "p": self.p, "max_steps": 1}

    def prepare(self, workdir, seed):
        self.path = gen.write_instance(gen.ladder_instance(self.m, self.n, seed),
                                       workdir / "katrina_10x30.json")
        self.psys = workdir / "katrina_10x30.psys"
        self.trace_out = workdir / "katrina_10x30.trace"

    def run_pass(self, t):
        out = PassOutput()
        out.text = route_build(t, out, self.path, self.p, self.psys)
        out.parsed, out.report = route_trace(t, out, self.psys, self.trace_out, 1, self.keep_every)
        return out

    def check(self, out):
        problems = super().check(out)
        if dsl.serialize(out.parsed.definition) != out.text:
            problems.append("serialize(parse(text)) differs from text")
        if out.counts["builder.rules"] != PSYS_10X30_RULES:
            problems.append(f"{out.counts['builder.rules']} rules, pinned {PSYS_10X30_RULES}")
        if out.counts["builder.priority_pairs"] != PSYS_10X30_PRIORITY_PAIRS:
            problems.append(f"{out.counts['builder.priority_pairs']} priority pairs, "
                            f"pinned {PSYS_10X30_PRIORITY_PAIRS}")
        if out.report.halted or out.report.steps != 1:
            problems.append("one-step cut-off did not exit with status 1 after one step")
        return problems


WORKLOADS = {w.name: w for w in (Simulate8x8, Halt2x2, Solve10x30, Psys10x30)}


# ---------------------------------------------------------------------------
# Select/apply replay
# ---------------------------------------------------------------------------


def replay(definition, snapshots: list[Configuration], reps: int = 3) -> dict[str, list[float]]:
    """Time the public ``select_firing`` and ``apply_step`` on sampled
    snapshots.  Both compile the definition on every call; an ``apply_step``
    with an empty plan measures that compile, and is subtracted.  Each figure
    is the least of ``reps`` calls, and the garbage collector is off
    meanwhile: one collection outweighs a step."""
    out = {"compile_s": [], "select_s": [], "apply_s": []}
    gc.disable()
    try:
        for config in snapshots:
            _replay_one(definition, config, reps, out)
    finally:
        gc.enable()
    return out


def _replay_one(definition, config: Configuration, reps: int, out: dict[str, list[float]]) -> None:
    empty, select, apply = [], [], []
    for _ in range(reps):
        start = perf_counter()
        engine.apply_step(definition, config, engine.FiringPlan())
        mid = perf_counter()
        plan = engine.select_firing(definition, config)
        end = perf_counter()
        engine.apply_step(definition, config, plan)
        empty.append(mid - start)
        select.append(end - mid)
        apply.append(perf_counter() - end)
    base = min(empty)
    out["compile_s"].append(base)
    out["select_s"].append(min(select) - base)
    out["apply_s"].append(min(apply) - base)
