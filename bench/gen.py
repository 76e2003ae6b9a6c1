"""Seeded instance files for the benchmark workloads.

The katrina-shaped recipe is the one of ``tests/test_relief.py``
(``katrina_shaped``): a well-conditioned instance whose equilibrium sits in
the hundreds of items, the regime of the published case study.  Each ladder
instance is drawn once from the ROADMAP baseline seed (1); the run seed then
relabels its organisations and locations by a seeded permutation.  The
relabelling changes every input the program sees (instance file, generated
rule order, trace text) but not the amount of work, so iteration counts stay
pinned and figures from different seeds are comparable.  A fresh draw per seed
would move the solver iteration counts by up to 20% (11,265 against 13,313 at
10x30), more than the benchmark's bounds.

This module writes plain JSON; it does not import the program, so the program
only ever receives files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

#: Seed of the ROADMAP instance ladder (katrina_shaped(Random(1), m, n)).
LADDER_SEED = 1

#: Copy of instances/demo_2x2.json, kept here so that the benchmark's inputs
#: (and the trace hash pinned on them) do not move when the examples do.
DEMO_2X2 = {
    "m": 2, "n": 2,
    "s": [3.0, 2.5],
    "d_lo": [1.0, 0.8],
    "d_hi": [2.5, 2.0],
    "gamma": [[1.2, 0.9], [1.0, 1.4]],
    "omega": [1.1, 0.8],
    "beta": [0.6, 0.4],
    "cost_a": [[0.7, 0.9], [1.1, 0.8]],
    "cost_b": [[0.3, 0.5], [0.25, 0.4]],
    "vis_k": [0.9, 1.2],
}

_ROW_KEYS = ("s", "omega", "beta")
_COL_KEYS = ("d_lo", "d_hi", "vis_k")
_MATRIX_KEYS = ("gamma", "cost_a", "cost_b")


def katrina_shaped(rng: random.Random, m: int, n: int) -> dict:
    """Instance dict drawn with the recipe of tests/test_relief.py."""
    gamma = [[round(rng.uniform(1.0, 3.0), 3) for _ in range(n)] for _ in range(m)]
    omega = [round(rng.uniform(1.0, 2.5), 3) for _ in range(m)]
    beta = [round(rng.uniform(0.4, 1.0), 3) for _ in range(m)]
    cost_a = [[round(rng.uniform(0.08, 0.2), 3) for _ in range(n)] for _ in range(m)]
    cost_b = [[round(rng.uniform(0.2, 1.5), 3) for _ in range(n)] for _ in range(m)]
    qf = [[(omega[i] * gamma[i][j] - 2 * cost_a[i][j] * cost_b[i][j]) / (2 * cost_a[i][j] ** 2)
           for j in range(n)] for i in range(m)]
    col = [sum(qf[i][j] for i in range(m)) for j in range(n)]
    row = [sum(qf[i][j] for j in range(n)) for i in range(m)]
    return {
        "m": m, "n": n,
        "s": [round(row[i] * rng.uniform(1.1, 1.6), 1) for i in range(m)],
        "d_lo": [round(col[j] * rng.uniform(0.2, 0.6), 1) for j in range(n)],
        "d_hi": [round(col[j] * rng.uniform(1.2, 1.8), 1) for j in range(n)],
        "gamma": gamma, "omega": omega, "beta": beta, "cost_a": cost_a, "cost_b": cost_b,
        "vis_k": [round(rng.uniform(0.5, 2.0), 3) for _ in range(n)],
    }


def relabel(data: dict, rng: random.Random) -> dict:
    """The same instance with organisations and locations permuted."""
    rows = list(range(data["m"]))
    cols = list(range(data["n"]))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = {"m": data["m"], "n": data["n"]}
    for key in _ROW_KEYS:
        out[key] = [data[key][i] for i in rows]
    for key in _COL_KEYS:
        out[key] = [data[key][j] for j in cols]
    for key in _MATRIX_KEYS:
        out[key] = [[data[key][i][j] for j in cols] for i in rows]
    return out


def ladder_instance(m: int, n: int, seed: int) -> dict:
    """Katrina-shaped m x n ladder instance, relabelled by ``seed``."""
    base = katrina_shaped(random.Random(LADDER_SEED), m, n)
    return relabel(base, random.Random(f"psrelief-bench/{m}x{n}/{seed}"))


def write_instance(data: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
