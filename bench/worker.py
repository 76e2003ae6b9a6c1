"""Run one benchmark workload in this process and print its result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``bench/run.py`` starts this script once per workload, with one thread for
every numeric library; see bench/README.md.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import psrelief  # noqa: E402
from psrelief.psystem import Configuration  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, replay  # noqa: E402

#: Replay at most this many sampled configurations per engine route and pass.
REPLAY_SAMPLES = 8

#: Spans of the program's layers; everything else in a pass is benchmark glue.
LAYERS = ("io", "relief", "builder", "dsl", "engine", "trace")

#: Work per (reference) second of the calls that do it, printed for reading
#: only: each applies to some workloads (Workload.rates), so none is in
#: BENCHMARK.json.
RATES = {
    "steps_per_s": (("engine.steps",), ("engine.run", "engine.run_generated")),
    "simulate_iterations_per_s": (("simulate.iterations",), ("engine.run_generated",)),
    "oracle_iterations_per_s": (("relief.quantized_iterations",), ("relief.solve_quantized",)),
    "solve_iterations_per_s": (("relief.simplified_iterations", "relief.full_iterations"),
                               ("relief.solve_simplified", "relief.solve_full")),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def manifest(args, workload, spec: dict) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    return {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "psrelief": getattr(psrelief, "__version__", None),
        "git_commit": commit,
        "env": dict(threads, PYTHONHASHSEED=os.environ.get("PYTHONHASHSEED")),
    }


def one_pass(workload, tracer: Tracer, pass_id: int) -> dict:
    gc.collect()
    try:
        out = tracer.run_pass(pass_id, lambda: workload.run_pass(tracer))
        problems = workload.check(out)
    except Exception as exc:  # a failing pass is counted, and the run goes on
        out, problems = None, [f"{type(exc).__name__}: {exc}"]
    scale = tracer.scale()
    return {
        "pass": pass_id,
        "traced": tracer.enabled,
        "scale": scale,
        "host_wall_s": tracer.wall_s,
        "wall_s": tracer.wall_s * scale,
        "setup_s": tracer.setup_s * scale,
        "totals": dict(tracer.totals),
        "counts": dict(out.counts) if out else {},
        "problems": problems,
        "out": out,
    }


def per_layer(rec: dict, out, tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, times rescaled by the pass's
    speed factor.  Runs the select/apply replay."""
    own = {k: v * rec["scale"] for k, v in tracer.self_times(rec["pass"]).items()}
    counts = rec["counts"]
    probes = out.probes
    steps = sum(p.steps for p in probes)

    samples = {"compile_s": [], "select_s": [], "apply_s": []}
    for probe in probes:
        snaps = [Configuration.initial(probe.definition)] + probe.samples
        stride = max(1, len(snaps) // REPLAY_SAMPLES)
        for key, values in replay(probe.definition, snaps[::stride][:REPLAY_SAMPLES]).items():
            samples[key] += values
    samples = {k: [x * rec["scale"] for x in v] for k, v in samples.items()}
    compile_s = median(samples["compile_s"]) if samples["compile_s"] else 0.0
    rules = counts.get("builder.rules", 0)

    def per(total, n, scale=1e6):
        return total / n * scale if n else 0.0

    select_us = median(samples["select_s"]) * 1e6 if samples["select_s"] else 0.0
    apply_us = median(samples["apply_s"]) * 1e6 if samples["apply_s"] else 0.0
    steady = [p for p in probes if p.steps > 1]
    if steady:  # measured between steps
        step_us = per(sum(p.engine_s for p in steady) * rec["scale"], sum(p.steps - 1 for p in steady))
    else:  # a single step: the replay's estimate
        step_us = select_us + apply_us
    wall = rec["wall_s"]
    layer_time = sum(v for k, v in own.items() if k.split(".", 1)[0] in LAYERS)
    observer_calls = sum(1 for s in tracer.spans if s[4] == rec["pass"] and s[0] == "trace.observer")
    fired = sum(p.fired for p in probes)
    return {
        "io.load_instance_s": own.get("io.load_instance", 0.0),
        "relief.validate_s": own.get("relief.validate", 0.0),
        "relief.constants_s": own.get("relief.constants", 0.0),
        "builder.build_s": own.get("builder.build", 0.0),
        "builder.decode_s": own.get("builder.decode", 0.0),
        "dsl.serialize_s": own.get("dsl.serialize", 0.0),
        "dsl.parse_s": own.get("dsl.parse", 0.0),
        "engine.compile_s": compile_s,
        "engine.run_s": own.get("engine.run", 0.0) + own.get("engine.run_generated", 0.0),
        "engine.step_us": step_us,
        "engine.select_us": select_us,
        "engine.apply_us": apply_us,
        "engine.steps": steps,
        "engine.rules_fired_per_step": per(fired, steps, 1),
        "engine.fire_ratio": per(fired, steps * rules, 1),
        "trace.observer_us": per(own.get("trace.observer", 0.0), observer_calls),
        "trace.bytes": counts.get("trace.bytes", 0),
        "dsl.bytes": counts.get("dsl.bytes", 0),
        "builder.rules": rules,
        "builder.priority_pairs": counts.get("builder.priority_pairs", 0),
        "relief.oracle_iter_us": per(own.get("relief.solve_quantized", 0.0),
                                     counts.get("relief.quantized_iterations", 0)),
        "relief.solve_simplified_iter_us": per(own.get("relief.solve_simplified", 0.0),
                                               counts.get("relief.simplified_iterations", 0)),
        "relief.solve_full_iter_us": per(own.get("relief.solve_full", 0.0),
                                         counts.get("relief.full_iterations", 0)),
        "relief.oracle_iterations": counts.get("relief.quantized_iterations", 0),
        "relief.solve_simplified_iterations": counts.get("relief.simplified_iterations", 0),
        "relief.solve_full_iterations": counts.get("relief.full_iterations", 0),
        "bench.traced_wall_s": wall,
        "bench.layer_coverage": layer_time / wall if wall else 0.0,
    }


def rates(names: tuple[str, ...], records: list[dict]) -> dict[str, float]:
    out = {}
    for name in names:
        count_keys, time_keys = RATES[name]
        values = []
        for rec in records:
            work = sum(rec["counts"].get(k, 0) for k in count_keys)
            took = sum(rec["totals"].get(k, 0.0) for k in time_keys) * rec["scale"]
            if work and took:
                values.append(work / took)
        if values:
            out[name] = median(values)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    workload = WORKLOADS[args.workload]()
    workdir = WORK_DIR / workload.name
    workload.prepare(workdir, args.seed)

    plain, traced = Tracer(enabled=False), Tracer(enabled=True)
    began = perf_counter()
    one_pass(workload, plain, -1)  # warm-up, not counted
    laps = [perf_counter() - began]

    # Start no pass that would end after --seconds, but make at least one
    # pass, and in a traced run one untraced and one traced pass.
    records: list[dict] = []
    start = perf_counter()
    while (perf_counter() - start + max(laps[-2:]) <= args.seconds
           or len(records) < 1 + args.trace):
        began = perf_counter()
        use_trace = bool(args.trace) and len(records) % 2 == 1
        rec = one_pass(workload, traced if use_trace else plain, len(records))
        out = rec.pop("out")
        if use_trace and out is not None:
            rec["layers"] = per_layer(rec, out, traced)
        del out  # peak_rss_mb is that of one pass
        records.append(rec)
        laps.append(perf_counter() - began)

    good = [r for r in records if not r["problems"]] or records
    untraced = [r for r in good if not r["traced"]]
    wall = median(r["wall_s"] for r in untraced)
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        wanted = spec["per_layer"]
        layers = [r["layers"] for r in good if "layers" in r]
        if layers:
            values = {name: median(layer[name] for layer in layers) for name in layers[0]}
            values["bench.trace_overhead"] = values["bench.traced_wall_s"] / wall
        else:  # no traced pass got through; the run is reported as failed
            values = {m["name"]: 0.0 for m in wanted}
    else:
        values = {
            "wall_s": wall,
            "setup_s": median(r["setup_s"] for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    extra = dict(rates(workload.rates, untraced), failed_fraction=failed / len(records))
    result_path = WORK_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "manifest": manifest(args, workload, spec),
        "metrics": metrics,
        "rates": extra,
        "passes": records,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.trace:
        traced.write(result_path.with_suffix(".spans.jsonl"))

    print(f"# {workload.name} seed {args.seed}: {len(records)} passes, {failed} failed, "
          f"results in {result_path.relative_to(ROOT)}")
    for rec in records:
        for problem in rec["problems"]:
            print(f"# pass {rec['pass']}: {problem}")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    for name, value in extra.items():
        print(f"{name:36s} {value:.6g} {'1/s' if name.endswith('_per_s') else 'ratio'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
