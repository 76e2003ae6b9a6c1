"""Tests of the benchmark itself (not part of the Tier-1 suite):

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from psrelief import builder, io as pio, relief, trace as ptrace  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import trajectory_problems  # noqa: E402


@pytest.mark.parametrize("m,n", [(8, 8), (10, 30)])
def test_generator_is_deterministic_per_seed(m, n):
    assert gen.ladder_instance(m, n, 7) == gen.ladder_instance(m, n, 7)
    assert gen.ladder_instance(m, n, 7) != gen.ladder_instance(m, n, 8)


def test_relabelling_permutes_the_ladder_instance():
    base = gen.katrina_shaped(random.Random(gen.LADDER_SEED), 4, 5)
    moved = gen.ladder_instance(4, 5, 3)
    for key in ("s", "d_lo", "d_hi", "omega", "beta", "vis_k"):
        assert sorted(moved[key]) == sorted(base[key])
    for key in ("gamma", "cost_a", "cost_b"):
        assert sorted(map(sorted, moved[key])) == sorted(map(sorted, base[key]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_instances_pass_validate(tmp_path, seed):
    for name, data in (("8x8", gen.ladder_instance(8, 8, seed)),
                       ("10x30", gen.ladder_instance(10, 30, seed)),
                       ("demo", gen.DEMO_2X2)):
        inst = pio.load_instance(gen.write_instance(data, tmp_path / f"{name}.json"))
        assert relief.validate(inst) == []


def test_trajectory_check_rejects_one_perturbed_count(tmp_path):
    inst = pio.load_instance(gen.write_instance(gen.DEMO_2X2, tmp_path / "demo.json"))
    want, _ = relief.quantized_trajectory(inst, 3, 4)
    got = ptrace.run_generated(builder.build(builder.BuildParams(instance=inst, p=3)),
                               max_iterations=4).q_trajectory
    assert trajectory_problems(got, want) == []
    got[2][1][0] += 1
    assert trajectory_problems(got, want)
    assert trajectory_problems(got[:-1], want)


def test_self_time_subtracts_children():
    t = Tracer(enabled=True)

    def body():
        with t.span("engine.run"):
            start = perf_counter()
            sum(range(1000))
            t.leaf("trace.observer", start, perf_counter())

    t.run_pass(0, body)
    own = t.self_times(0)
    spans = {s[0]: s[2] - s[1] for s in t.spans}
    assert own["trace.observer"] == pytest.approx(spans["trace.observer"])
    assert own["engine.run"] == pytest.approx(spans["engine.run"] - spans["trace.observer"])
    assert sum(own.values()) == pytest.approx(spans["bench.pass"])
    assert t.wall_s == pytest.approx(spans["bench.pass"])


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_named_metric_with_unit(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", "halt_2x2", "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["bench.layer_coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run(tmp_path, "--workload", "halt_2x2", "--seconds", "0.1")
    assert done.returncode != 0
    assert not done.stdout.strip()
