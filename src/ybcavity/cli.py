"""Command-line front end: wires a RunConfig to the simulators and emits
figure-ready CSV/JSON-lines files.

Commands
--------
spectrum   cavity-output spectra with the shift beam off and on, plus a
           JSON summary (peak positions, skewnesses)
snr        deterministic SNR sweeps over shift-beam power and waist
scatter    window count records (shift off and on) with a correlation
           summary
transit    single-atom transit records with per-atom statistics
motdip     trap-loss spectroscopy profile of the 1539-nm line

Every command is reproducible: the same config file and seed produce
byte-identical outputs, and each computes all it emits before it writes
a file.  Exit codes: 0 success, 2 configuration errors, 3 numerical
failures (an overflow or a division by zero among them).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import RunConfig, dump_config, load_config
from .errors import ConfigError, NumericalError
from .observables import (count_weighted_skewness, fluorescence_spectrum,
                          mot_dip_profile, pearson_correlation, predicted_snr,
                          snr_from_counts, spectrum_peak)
from .ratemodel import SPINS
from .transit import (probe_detuning, run_ensemble, run_transit_ensemble,
                      write_count_records, write_records, write_stats_json,
                      write_transit_records)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _require_seed(config: RunConfig) -> int:
    seed = config.run.master_seed
    if seed is None:
        raise ConfigError("this command samples; set run.master_seed in the "
                          "config or pass --seed")
    return seed


def _make_output_dir(path: str) -> None:
    """Create the output directory before any solve; one that cannot be
    created (say, an existing file) is a configuration error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc}") from exc


def _outfile(config: RunConfig, name: str) -> str:
    return os.path.join(config.run.output_path, name)


def _write_floats(config: RunConfig, name: str, kind: str, columns, rows):
    """A CSV of floats: a grid value given as an integer prints as 9.0."""
    write_records(_outfile(config, name), kind, columns,
                  ([float(v) for v in row] for row in rows))


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(config: RunConfig) -> int:
    grid = config.grids.spectrum_mhz.values()
    transit_cfg = config.transit
    off = fluorescence_spectrum(grid, transit_cfg, light_shift_on=False)
    on = fluorescence_spectrum(grid, transit_cfg, light_shift_on=True)
    for label, points in (("off", off), ("on", on)):
        _write_floats(config, f"spectrum_shift_{label}.csv", "spectrum",
                      ("detuning_MHz", "mean_counts"),
                      ((p.excitation_detuning, p.mean_counts) for p in points))
    write_stats_json(_outfile(config, "spectrum_summary.json"), {
        "peak_shift_off_mhz": spectrum_peak(off),
        "peak_shift_on_mhz": spectrum_peak(on),
        "skewness_shift_off": count_weighted_skewness(off),
        "skewness_shift_on": count_weighted_skewness(on),
        "engineered_shift_mhz":
            probe_detuning(replace(transit_cfg, light_shift_on=True,
                                   excitation_detuning=None)) / 1e6,
    })
    return EXIT_OK


def cmd_snr(config: RunConfig) -> int:
    transit_cfg = config.transit
    powers_mw = config.grids.snr_power_mw
    waists_um = config.grids.snr_waist_um
    power_curve = predicted_snr([p / 1e3 for p in powers_mw], transit_cfg,
                                vary="power")
    waist_curve = predicted_snr([w / 1e6 for w in waists_um], transit_cfg,
                                vary="waist")
    _write_floats(config, "snr_vs_power.csv", "snr", ("power_mW", "snr"),
                  ((p, s) for p, (_, s) in zip(powers_mw, power_curve)))
    _write_floats(config, "snr_vs_waist.csv", "snr", ("waist_um", "snr"),
                  ((w, s) for w, (_, s) in zip(waists_um, waist_curve)))
    return EXIT_OK


def cmd_scatter(config: RunConfig) -> int:
    seed = _require_seed(config)
    run, transit_cfg = config.run, config.transit
    summary = {"n_runs": run.n_runs, "initial_spin": transit_cfg.initial_spin}
    halves = {}
    for label, shift_on in (("off", False), ("on", True)):
        cfg = replace(transit_cfg, light_shift_on=shift_on)
        records = halves[label] = run_ensemble(run.n_runs, seed, cfg)
        summary[f"pearson_shift_{label}"] = pearson_correlation(records)
        for col in ("counts_sigma_plus", "counts_sigma_minus"):
            summary[f"mean_{col}_shift_{label}"] = \
                int(records[col].sum()) / len(records)
    for label, records in halves.items():
        name = f"scatter_shift_{label}.{run.emit_format}"
        write_count_records(_outfile(config, name), records,
                            emit_format=run.emit_format)
    write_stats_json(_outfile(config, "scatter_summary.json"), summary)
    return EXIT_OK


def cmd_transit(config: RunConfig) -> int:
    seed = _require_seed(config)
    run, transit_cfg = config.run, config.transit
    records = run_transit_ensemble(run.n_runs, seed, transit_cfg)
    name = f"transit_records.{run.emit_format}"
    write_transit_records(_outfile(config, name), records,
                          emit_format=run.emit_format)
    n = len(records)
    counts = int(records["counts_sigma_plus"].sum()
                 + records["counts_sigma_minus"].sum())
    flips = int((records["final_spin"] != records["initial_spin"]).sum())
    summary = {"n_runs": n, "initial_spin": transit_cfg.initial_spin,
               "light_shift_on": transit_cfg.light_shift_on,
               "mean_counts_per_atom": counts / n,
               "flip_fraction": flips / n}
    if transit_cfg.initial_spin in SPINS:
        summary["monte_carlo_snr"] = snr_from_counts(
            records, transit_cfg.initial_spin)
    write_stats_json(_outfile(config, "transit_summary.json"), summary)
    return EXIT_OK


def cmd_motdip(config: RunConfig) -> int:
    grid = config.grids.dip_mhz.values()
    values = mot_dip_profile(grid, config.mot)
    _write_floats(config, "motdip.csv", "dip",
                  ("detuning_MHz", "normalized_N"), zip(grid, values))
    return EXIT_OK


_COMMANDS = {"spectrum": cmd_spectrum, "snr": cmd_snr,
             "scatter": cmd_scatter, "transit": cmd_transit,
             "motdip": cmd_motdip}


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybcavity",
        description="Spin-selective cavity fluorescence simulator: emits "
                    "plot-ready data files for spectra, SNR sweeps, count "
                    "records, and trap-loss profiles.")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default configuration as JSON and "
                             "exit")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON configuration file (defaults when "
                             "omitted)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="master seed (overrides run.master_seed)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides run.output_path)")
    parser.add_argument("command", nargs="?", choices=sorted(_COMMANDS),
                        help="what to simulate and emit")
    return parser


def _assemble_config(args) -> RunConfig:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if overrides:
        config = replace(config, run=replace(config.run, **overrides))
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.print_defaults:
        sys.stdout.write(dump_config(RunConfig()))
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: a command is required\n")
        return EXIT_CONFIG

    try:
        config = _assemble_config(args)
        _make_output_dir(config.run.output_path)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except (NumericalError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
