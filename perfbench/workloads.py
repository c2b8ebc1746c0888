"""Seeded workload generators.

Each workload is a list of `Call`s: one `lcalim.cli.main` argument list
plus the exit code and `summary.json` verdict it must produce.  A round of
a workload runs its calls once, in order.  The generators read only the
bundled example configs under `src/lcalim/examples` and the seed; the
package sees nothing but the config files written here.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

# Bundled examples and the verdicts they give at their bundled grids.
# bernoulli_mismatch fails by design: its rate converges to 1, not to 2.
VERIFY_EXPECTED = {
    "torus_clt": (0, "pass"),
    "torus_haar": (0, "pass"),
    "padic_poisson": (0, "pass"),
    "padic_haar": (0, "pass"),
    "solenoid_clt": (0, "pass"),
    "bernoulli_mismatch": (1, "fail"),
}

# verify-sweep: grid points per example, log-uniform in [GRID_LO, GRID_HI].
# The top stays at 1e12: above 1e13 the K-th-power FT is known to lose
# accuracy, which would change verdicts for a reason this workload is not
# about.
SWEEP_GRID_POINTS = 40
SWEEP_GRID_LO = 1e2
SWEEP_GRID_HI = 1e12

# mc-shortcut: bundled Monte Carlo examples, with fewer replicates than the
# bundled 1e5 so that one round takes well under a second.
MC_EXAMPLES = ("padic_poisson", "torus_clt")
MC_REPLICATES = 2000

# rowwise-general: a rowwise-independent torus array with K_n = n distinct
# symmetric entries +-sqrt(c_k / n); c_k is uniform in [C_LO, C_HI] and
# rescaled so that every row has variance sum exactly 1 (Gauss, b = 1).
ROWWISE_GRID = (100, 300, 1000, 3000, 10000)
ROWWISE_C_LO, ROWWISE_C_HI = 0.5, 1.5
ROWWISE_MC_N = 1000
ROWWISE_REPLICATES = 200


@dataclass(frozen=True)
class Call:
    """One closed-loop call: `key` names its output directory, which stays
    the same across rounds so reruns can be compared byte for byte."""

    key: str
    command: str
    config: str
    seed: int | None
    expected_exit: int
    expected_overall: str
    entries: int = 0  # sum over the grid of K_n (verify) or M * K_n (sample)
    draws: int = 0  # row-sum plus limit-law draws (sample)

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.command, "--config", self.config, "--out", out_dir]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


def _bundled(src_dir: str, name: str) -> dict:
    path = os.path.join(src_dir, "lcalim", "examples", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(config_dir: str, name: str, doc: dict) -> str:
    path = os.path.join(config_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def log_uniform_grid(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    points: set[int] = set()
    a, b = math.log(lo), math.log(hi)
    while len(points) < count:
        points.add(int(round(math.exp(rng.uniform(a, b)))))
    return sorted(points)


def verify_sweep(rng: random.Random, src_dir: str, config_dir: str) -> list[Call]:
    calls = []
    for name, (code, overall) in VERIFY_EXPECTED.items():
        doc = _bundled(src_dir, name)
        doc["grid"] = log_uniform_grid(rng, SWEEP_GRID_POINTS, SWEEP_GRID_LO, SWEEP_GRID_HI)
        doc.pop("characters", None)
        doc.pop("neighborhoods", None)
        path = _write(config_dir, name, doc)
        calls.append(Call(name, "verify", path, None, code, overall))
    return calls


def mc_shortcut(rng: random.Random, src_dir: str, config_dir: str) -> list[Call]:
    seed = rng.randrange(2**32)
    calls = []
    for name in MC_EXAMPLES:
        doc = _bundled(src_dir, name)
        doc["mc"]["replicates"] = MC_REPLICATES
        n_points = len(doc["mc"]["n"])
        draws = MC_REPLICATES * (n_points + 1)  # both examples sample the law
        path = _write(config_dir, name, doc)
        calls.append(Call(name, "sample", path, seed, 0, "pass", draws=draws))
    return calls


def rowwise_config(rng: random.Random) -> dict:
    rows = {}
    for n in ROWWISE_GRID:
        c = [rng.uniform(ROWWISE_C_LO, ROWWISE_C_HI) for _ in range(n)]
        mean = sum(c) / n
        row = []
        for ck in c:
            theta = math.sqrt(ck / mean / n)
            row.append(
                [
                    {"x": {"angle": theta}, "weight": 0.5},
                    {"x": {"angle": -theta}, "weight": 0.5},
                ]
            )
        rows[str(n)] = row
    return {
        "group": {"kind": "torus"},
        "array": {"kind": "general", "rows": rows},
        "law": {"H": {"kind": "trivial"}, "b": 1.0, "eta": []},
        "grid": list(ROWWISE_GRID),
        "mc": {
            "replicates": ROWWISE_REPLICATES,
            "seed": rng.randrange(2**32),
            "n": [ROWWISE_MC_N],
        },
    }


def rowwise_general(rng: random.Random, src_dir: str, config_dir: str) -> list[Call]:
    path = _write(config_dir, "rowwise", rowwise_config(rng))
    verify_entries = sum(ROWWISE_GRID)
    return [
        Call("rowwise-verify", "verify", path, None, 0, "pass", entries=verify_entries),
        Call(
            "rowwise-sample",
            "sample",
            path,
            None,
            0,
            "pass",
            entries=ROWWISE_REPLICATES * ROWWISE_MC_N,
            draws=2 * ROWWISE_REPLICATES,
        ),
    ]


GENERATORS = {
    "verify-sweep": verify_sweep,
    "mc-shortcut": mc_shortcut,
    "rowwise-general": rowwise_general,
}


def generate(workload: str, seed: int, src_dir: str, config_dir: str) -> list[Call]:
    """Write the workload's configs for this seed into config_dir and
    return its calls."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, src_dir, config_dir)
