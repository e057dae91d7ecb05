"""Output checks of the CLI workloads, run after the timed rounds.

Each check recomputes what the outputs must satisfy from the config and
the package's own quadrature or from closed forms; none compares against
a stored copy.  Every function returns a list of failure messages.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

FIRST_WINDOWS = 64        # windows re-run with one worker and compared


def _tagged_csv(path: Path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _jsonl(path: Path):
    with open(path) as fh:
        return [json.loads(line) for line in fh][1:]


def _config(round_dir: Path, plan: dict):
    from ybcavity.config import load_config
    return load_config(str(round_dir / plan["config"]))


def _spectrum_mean(config, shift_on: bool) -> float:
    """Quadrature mean detected counts per atom at the probe detuning,
    for an unpolarized atom."""
    from dataclasses import replace

    from ybcavity.observables import fluorescence_spectrum
    from ybcavity.transit import probe_detuning

    cfg = replace(config.to_transit_config(), light_shift_on=shift_on)
    det_mhz = probe_detuning(cfg) / 1e6
    return fluorescence_spectrum([det_mhz], cfg, light_shift_on=shift_on)[0] \
        .mean_counts


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_sweep(rounds) -> list:
    from scipy.constants import c, h

    from ybcavity import constants

    failures = []
    for round_dir, plan in rounds:
        main = round_dir / "main"
        off = {float(r["detuning_MHz"]): float(r["mean_counts"])
               for r in _tagged_csv(main / "spectrum_shift_off.csv")}
        for det, value in off.items():
            if -det not in off or not _close(value, off[-det], 1e-9):
                failures.append(f"{round_dir.name}: shift-off spectrum is "
                                f"not even at {det} MHz")
        summary = json.loads((main / "spectrum_summary.json").read_text())
        peak, shift = summary["peak_shift_on_mhz"], \
            summary["engineered_shift_mhz"]
        if not 0.0 < peak <= shift:
            failures.append(f"{round_dir.name}: shift-on peak {peak} MHz "
                            f"outside (0, {shift}]")
        if not summary["skewness_shift_on"] < 0.0:
            failures.append(f"{round_dir.name}: shift-on skewness "
                            f"{summary['skewness_shift_on']} is not negative")

        power = [(float(r["power_mW"]), float(r["snr"]))
                 for r in _tagged_csv(main / "snr_vs_power.csv")]
        snrs = [s for _, s in sorted(power)]
        if any(b < a * (1.0 - 1e-12) for a, b in zip(snrs, snrs[1:])):
            failures.append(f"{round_dir.name}: SNR falls as power rises: "
                            f"{snrs}")
        waist = {float(r["waist_um"]): float(r["snr"])
                 for r in _tagged_csv(main / "snr_vs_waist.csv")}
        if not _close(dict(power)[9.0], waist[50.0], 1e-12):
            failures.append(f"{round_dir.name}: SNR at 50 um "
                            f"{waist[50.0]} differs from 9 mW "
                            f"{dict(power)[9.0]}")

        # trap-loss profile, recomputed from MotParams
        mot = _config(round_dir, plan).mot
        gamma = 2.0 * math.pi * mot.natural_linewidth_D1
        i_sat = math.pi * h * c * gamma / (3.0 * constants.WAVELENGTH_IR ** 3)
        s0 = mot.probe_power_density / i_sat
        eta = mot.p1_population * mot.branching
        for row in _tagged_csv(main / "motdip.csv"):
            delta = 2.0 * math.pi * float(row["detuning_MHz"]) * 1e6
            gamma1 = 0.5 * gamma * s0 / (1.0 + s0 + (2.0 * delta / gamma) ** 2)
            want = mot.Gamma0 / (mot.Gamma0 + eta * gamma1)
            if not _close(float(row["normalized_N"]), want, 1e-9):
                failures.append(f"{round_dir.name}: motdip at "
                                f"{row['detuning_MHz']} MHz is "
                                f"{row['normalized_N']}, expected {want}")
                break

        for name in ("spectrum_shift_off.csv", "spectrum_shift_on.csv"):
            values = [float(r["mean_counts"]) for r in
                      _tagged_csv(round_dir / "offaxis" / name)]
            if not values or not all(math.isfinite(v) and v > 0.0
                                     for v in values):
                failures.append(f"{round_dir.name}: off-axis {name} holds "
                                f"{values}")
    return failures


def check_transit(rounds) -> list:
    from scipy.constants import g

    records = [row for round_dir, _ in rounds for row in
               _tagged_csv(round_dir / "main" / "transit_records.csv")]
    config = _config(*rounds[0])
    failures = []
    n = len(records)

    counts = [int(r["counts_sigma_plus"]) + int(r["counts_sigma_minus"])
              for r in records]
    mean = sum(counts) / n
    se = math.sqrt(sum((x - mean) ** 2 for x in counts) / (n - 1) / n)
    want = _spectrum_mean(config, shift_on=True)
    if not abs(mean - want) <= 5.0 * se + 0.01 * want:
        failures.append(f"mean counts per atom {mean:.4f} +/- {se:.4f}, "
                        f"quadrature {want:.4f}")

    geo = config.geometry
    crossing = (math.sqrt(2.0 * (geo.drop_height + geo.mode_waist) / g)
                - math.sqrt(2.0 * (geo.drop_height - geo.mode_waist) / g))
    durations = {float(r["transit_duration_s"]) for r in records}
    if not all(_close(d, crossing, 1e-9) for d in durations):
        failures.append(f"transit durations {sorted(durations)[:3]} differ "
                        f"from the free-fall crossing time {crossing}")

    ups = sum(r["initial_spin"] == "up" for r in records)
    if not abs(ups - 0.5 * n) <= 2.5 * math.sqrt(n):
        failures.append(f"{ups} of {n} atoms started up")
    return failures


def check_scatter(rounds) -> list:
    from ybcavity import cli

    config = _config(*rounds[0])
    cfg = config.to_transit_config()
    mean_atoms = cfg.atom_rate * cfg.window
    dark = [r * cfg.window for r in cfg.cavity.dark_rates_per_s]
    failures = []
    for label, shift_on in (("off", False), ("on", True)):
        rows = [row for round_dir, _ in rounds for row in
                _jsonl(round_dir / "main" / f"scatter_shift_{label}.jsonl")]
        n = len(rows)
        atoms = sum(r["atom_count"] for r in rows) / n
        if not abs(atoms - mean_atoms) <= 5.0 * math.sqrt(mean_atoms / n):
            failures.append(f"shift {label}: {atoms:.4f} atoms per window, "
                            f"expected {mean_atoms:.4f}")
        per_atom = _spectrum_mean(config, shift_on)
        for k, pol in enumerate(("counts_sigma_plus", "counts_sigma_minus")):
            values = [r[pol] for r in rows]
            mean = sum(values) / n
            se = math.sqrt(sum((x - mean) ** 2 for x in values) / (n - 1) / n)
            # an unpolarized atom under the mirror-symmetric drive puts
            # half its counts in each polarization
            want = mean_atoms * 0.5 * per_atom + dark[k]
            if not abs(mean - want) <= 5.0 * se + 0.01 * want:
                failures.append(f"shift {label}: mean {pol} {mean:.4f} "
                                f"+/- {se:.4f}, expected {want:.4f}")

    for round_dir, _ in rounds:
        summary = json.loads((round_dir / "main" / "scatter_summary.json")
                             .read_text())
        r_off, r_on = summary["pearson_shift_off"], summary["pearson_shift_on"]
        if r_off is None or r_on is None or not r_on < r_off:
            failures.append(f"{round_dir.name}: Pearson r shift on {r_on} "
                            f"not below shift off {r_off}")

    round_dir, plan = rounds[0]
    serial = round_dir / "serial"
    serial.mkdir(exist_ok=True)
    doc = json.loads((round_dir / plan["config"]).read_text())
    doc["run"].update(n_runs=FIRST_WINDOWS, threads=1)
    (serial / "config.json").write_text(json.dumps(doc))
    code = cli.main(["--config", str(serial / "config.json"),
                     "--out", str(serial), "--seed", str(plan["seed"]),
                     "scatter"])
    if code != 0:
        failures.append(f"one-worker scatter exited {code}")
        return failures
    for label in ("off", "on"):
        name = f"scatter_shift_{label}.jsonl"
        one = (serial / name).read_bytes().splitlines()
        two = (round_dir / "main" / name).read_bytes().splitlines()
        if one != two[:len(one)] or len(one) != FIRST_WINDOWS + 1:
            failures.append(f"first {FIRST_WINDOWS} windows of {name} differ "
                            "between one worker and two")
    return failures
