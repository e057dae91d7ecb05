"""Seeded inputs of the four workloads, one round at a time.

A round is one fresh interpreter running a fixed list of operations
(`worker.py`).  Its inputs depend only on (workload, seed, round index),
so a round can be re-run with identical work, which the traced pass does
to measure its own overhead.  This module needs only the standard
library: it writes config files and a plan, and the worker reads them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("sweep", "transit", "scatter", "master")

# sweep: a symmetric five-point spectrum grid whose points are exact
# binary fractions, so the grid is symmetric to the last bit and the
# shift-off spectrum can be checked for evenness exactly
SPECTRUM_STEPS_MHZ = (3.0, 3.25, 3.5, 3.75, 4.0)
OFF_AXIS_UM = (5.0, 15.0)                  # shift-beam offset along x
OFF_AXIS_DETUNINGS_MHZ = (4.0, 4.5, 5.0, 5.5, 6.0)

TRANSIT_RUNS = 3000
SCATTER_WINDOWS = 800                      # per shift state
SCATTER_THREADS = 2

MASTER_POSITIONS = 3                       # each solved shift on and off
EVOLVE_TIME_S = 4e-6


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def prepare(workload: str, seed: int, index: int, round_dir: Path) -> dict:
    """Write the round's config files into `round_dir` and return its plan.

    A plan names the config whose loading is timed as set-up (`config`,
    None for the defaults) and either CLI commands, as
    [command, config file, output subdirectory], or the master-equation
    positions in units of the cavity mode waist.
    """
    rng = round_rng(workload, seed, index)
    round_dir.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "config": None, "seed": None,
            "commands": []}
    if workload == "sweep":
        step = rng.choice(SPECTRUM_STEPS_MHZ)
        _write_json(round_dir / "sweep.json", {"grids": {"spectrum_mhz": {
            "start": -2.0 * step, "stop": 2.0 * step, "step": step}}})
        det = rng.choice(OFF_AXIS_DETUNINGS_MHZ)
        offset = round(rng.uniform(*OFF_AXIS_UM), 1) * 1e-6
        _write_json(round_dir / "offaxis.json", {
            "shift_beam": {"axis_offset": offset},
            "grids": {"spectrum_mhz": {"start": det, "stop": det,
                                       "step": 1.0}}})
        plan["config"] = "sweep.json"
        plan["commands"] = [["spectrum", "sweep.json", "main"],
                            ["snr", "sweep.json", "main"],
                            ["motdip", "sweep.json", "main"],
                            ["spectrum", "offaxis.json", "offaxis"]]
    elif workload == "transit":
        _write_json(round_dir / "transit.json", {"run": {
            "n_runs": TRANSIT_RUNS, "threads": 1, "initial_spin": "random",
            "light_shift_on": True, "emit_format": "csv"}})
        plan["config"] = "transit.json"
        plan["seed"] = rng.randrange(2 ** 31)
        plan["commands"] = [["transit", "transit.json", "main"]]
    elif workload == "scatter":
        _write_json(round_dir / "scatter.json", {"run": {
            "n_runs": SCATTER_WINDOWS, "threads": SCATTER_THREADS,
            "emit_format": "jsonl"}})
        plan["config"] = "scatter.json"
        plan["seed"] = rng.randrange(2 ** 31)
        plan["commands"] = [["scatter", "scatter.json", "main"]]
    elif workload == "master":
        # the mode centre, where the drive is strong enough for a 4 us
        # evolution to relax onto the steady state (at weak drive the
        # ground-state coherence takes far longer), then positions uniform
        # over the mode: (x, y) on a disc of one waist, z within one waist
        positions = [[0.0, 0.0, 0.0]]
        for _ in range(MASTER_POSITIONS - 1):
            r = math.sqrt(rng.random())
            theta = 2.0 * math.pi * rng.random()
            positions.append([r * math.cos(theta), r * math.sin(theta),
                              rng.uniform(-1.0, 1.0)])
        plan["positions"] = positions
        plan["evolve_time_s"] = EVOLVE_TIME_S
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(round_dir / "plan.json", plan)
    return plan

