"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py ROUND_DIR [--trace] [--setup-only]

Reads ROUND_DIR/plan.json (written by `workloads.prepare`), times the
set-up (`import ybcavity` plus loading and validating the round's config)
and then the round's operations, and writes ROUND_DIR/round.json.  With
--trace the package's public functions are wrapped after set-up and the
spans go to ROUND_DIR/spans.json.  The master-equation workload checks its
states here, after the timed part, since they live only in this process.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("round_dir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    round_dir = args.round_dir
    plan = json.loads((round_dir / "plan.json").read_text())
    config_path = (str(round_dir / plan["config"]) if plan["config"]
                   else None)

    t0 = time.perf_counter()
    import ybcavity.config
    ybcavity.config.load_config(config_path)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "package": ybcavity.__file__}
    if args.setup_only:
        _write(round_dir / "round.json", result)
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        result["missing"] = spans.install(tracer)

    run = _master if plan["workload"] == "master" else _commands
    window, attempted, failed, finish = run(plan, round_dir)
    if tracer is not None:
        tracer.enabled = False
    result.update(work_s=window[1] - window[0], attempted=attempted,
                  failed=failed,
                  maxrss_kib=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss)
    result["failures"] = finish() if finish else []
    if tracer is not None:
        _write(round_dir / "spans.json", {**tracer.dump(), "window": window})
    _write(round_dir / "round.json", result)
    return 0


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def _operations(command: str, config) -> int:
    """Operations one CLI command performs: spectrum and SNR points, the
    trap-loss profile as one, transits, or windows."""
    if command == "spectrum":
        return 2 * len(config.grids.spectrum_mhz.values())
    if command == "snr":
        return len(config.grids.snr_power_mw) + len(config.grids.snr_waist_um)
    if command == "motdip":
        return 1
    if command == "transit":
        return config.run.n_runs
    if command == "scatter":
        return 2 * config.run.n_runs
    raise ValueError(f"unknown command {command!r}")


def _commands(plan, round_dir: Path):
    from ybcavity import cli
    from ybcavity.config import load_config

    calls = []
    for command, config_file, out in plan["commands"]:
        config_path = str(round_dir / config_file)
        argv = ["--config", config_path, "--out", str(round_dir / out)]
        if plan["seed"] is not None:
            argv += ["--seed", str(plan["seed"])]
        calls.append((argv + [command],
                      _operations(command, load_config(config_path))))
    attempted = failed = 0
    start = time.perf_counter()
    for argv, ops in calls:
        attempted += ops
        if _attempt(cli.main, argv) != 0:
            failed += ops
    return (start, time.perf_counter()), attempted, failed, None


def _master(plan, round_dir: Path):
    """Steady states of the full two-mode model at each position, shift
    beam on and off (n_max = 2), the first position (shift on) again at
    n_max = 3, and one evolution there."""
    from ybcavity import dynamics
    from ybcavity.lightshift import ShiftResult, stark_shift
    from ybcavity.transit import (default_transit_config, probe_detuning,
                                  shift_fraction)

    cases = []
    for shift_on in (True, False):
        cfg = default_transit_config(light_shift_on=shift_on)
        det = probe_detuning(cfg)
        centre = (stark_shift(+1.5, cfg.shift_beam, cfg.scheme),
                  stark_shift(+0.5, cfg.shift_beam, cfg.scheme))
        waist = cfg.cavity.mode_waist
        for k, unit in enumerate(plan["positions"]):
            pos = tuple(waist * u for u in unit)
            frac = float(shift_fraction(pos[0], pos[2], cfg))
            shifts = ShiftResult(centre[0] * frac, centre[1] * frac)
            cases.append(((k, shift_on), cfg, det, pos, shifts))
    first = cases[0]
    solves = [(key, cfg, det, pos, shifts, 2)
              for key, cfg, det, pos, shifts in cases]
    solves.append((first[0], *first[1:], 3))

    def solve(cfg, det, pos, shifts, n_max):
        h = dynamics.build_hamiltonian(cfg.scheme, cfg.cavity, cfg.drive,
                                       shifts, det, pos, n_max=n_max)
        gen = dynamics.build_lindblad(h, cfg.scheme, cfg.cavity)
        return gen, dynamics.steady_state(
            gen, dynamics.ground_vacuum_state(n_max))

    states, generators = {}, {}
    start = time.perf_counter()
    for key, cfg, det, pos, shifts, n_max in solves:
        solved = _attempt(solve, cfg, det, pos, shifts, n_max)
        if solved is not None:
            generators[key, n_max], states[key, n_max] = solved
    evolved = None
    if (first[0], 2) in generators:
        evolved = _attempt(dynamics.evolve, dynamics.ground_vacuum_state(2),
                           generators[first[0], 2], plan["evolve_time_s"])
    window = (start, time.perf_counter())
    failed = len(solves) - len(states) + (evolved is None)

    def finish():
        return _master_checks(states, evolved, cases, first[0])

    return window, len(solves) + 1, failed, finish


def _attempt(operation, *args):
    """Run one operation; a failure of any kind is reported on stderr and
    returned as None, so the round goes on and counts it."""
    try:
        return operation(*args)
    except Exception:
        traceback.print_exc()
        return None


def _master_checks(states, evolved, cases, reference):
    """Output checks of the master workload; returns the failures."""
    from ybcavity.dynamics import adiabatic_rates
    from ybcavity.errors import YbCavityError

    failures = []
    for (key, n_max), state in states.items():
        try:
            state.validate()
        except YbCavityError as exc:
            failures.append(f"state {key} n_max={n_max} invalid: {exc}")
    if evolved is not None:
        try:
            evolved.validate()
        except YbCavityError as exc:
            failures.append(f"evolved state invalid: {exc}")

    two, three = states.get((reference, 2)), states.get((reference, 3))
    if two is not None and three is not None:
        for mode in (0, 1):
            a, b = two.photon_number(mode), three.photon_number(mode)
            if not abs(a - b) <= 0.01 * abs(b):
                failures.append(f"<n{mode}> n_max 2 vs 3: {a:.6g} vs {b:.6g}")
    if two is not None and evolved is not None:
        for mode in (0, 1):
            a, b = evolved.photon_number(mode), two.photon_number(mode)
            if not abs(a - b) <= 1e-3 * abs(b):
                failures.append(f"evolve <n{mode}> {a:.6g} does not land on "
                                f"the steady state {b:.6g}")

    for key, cfg, det, pos, shifts in cases:
        state = states.get((key, 2))
        if state is None:
            continue
        flux = 2.0 * cfg.cavity.kappa * (state.photon_number(0)
                                         + state.photon_number(1))
        rates = 0.0
        for spin in ("up", "down"):
            r = adiabatic_rates(spin, det, pos, shifts, cfg.scheme,
                                cfg.cavity, cfg.drive)
            rates += 0.5 * (r.rate_sigma_plus + r.rate_sigma_minus)
        if not (math.isfinite(rates) and abs(rates - flux) <= 0.02 * flux):
            failures.append(f"adiabatic_rates {rates:.6g}/s against the full "
                            f"model's flux {flux:.6g}/s at {key}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
