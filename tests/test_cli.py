"""CLI tests: argument plumbing, exit codes, file outputs, config files,
environment overrides, and byte-level reproducibility."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ybcavity.cli import main
from ybcavity.config import (RunConfig, config_from_dict, dump_config,
                             load_config)
from ybcavity.transit import write_stats_json


@pytest.fixture(autouse=True)
def _scrub_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("YBCAVITY_"):
            monkeypatch.delenv(name)


def _write_config(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def _small_stochastic(tmp_path, **run_extra):
    run = {"n_runs": 60, **run_extra}
    return _write_config(tmp_path, {"run": run})


_SCIPY_PROBE = textwrap.dedent("""
    import json, sys
    import ybcavity, ybcavity.cli
    with open("config.json", "w") as f:
        json.dump({"run": {"n_runs": 20},
                   "grids": {"spectrum_mhz": {"start": 0.0, "stop": 0.0,
                                              "step": 1.0},
                             "snr_power_mw": [9.0], "snr_waist_um": [40.0]}},
                  f)
    codes = [ybcavity.cli.main(["--config", "config.json", "--seed", "7",
                                "--out", "out", command])
             for command in ("motdip", "snr", "spectrum", "transit",
                             "scatter")]
    cli = sorted(m for m in sys.modules
                 if m == "scipy" or m.startswith("scipy."))
    import ybcavity.dynamics
    with open("probe.json", "w") as f:
        json.dump({"codes": codes, "cli": cli,
                   "full": "scipy.sparse.linalg" in sys.modules}, f)
""")


def test_cli_path_never_imports_scipy(tmp_path):
    # importing scipy is most of a command's start-up, and only the full
    # model (`dynamics`) needs it: at its own import, not inside a solve
    env = {**os.environ, "PYTHONPATH": str(
        Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads((tmp_path / "probe.json").read_text())
    assert got["codes"] == [0] * 5
    assert got["cli"] == []
    assert got["full"]


def test_print_defaults_is_machine_readable(capsys):
    assert main(["--print-defaults"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert set(doc) == {"scheme", "cavity", "drive", "shift_beam",
                       "geometry", "mot", "run", "grids"}
    # the printed document reconstructs the default config exactly
    assert dump_config(config_from_dict(doc)) == out


def test_missing_command_is_a_config_error(capsys):
    assert main([]) == 2
    assert "command is required" in capsys.readouterr().err


def test_motdip_emits_tagged_csv(tmp_path):
    assert main(["motdip", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "motdip.csv").read_text().splitlines()
    assert lines[0] == "# format=ybcavity.dip.v1"
    assert lines[1] == "detuning_MHz,normalized_N"
    values = [float(row.split(",")[1]) for row in lines[2:]]
    assert min(values) < 0.2 and max(values) <= 1.0


def test_motdip_env_override_flattens_dip(tmp_path, monkeypatch):
    monkeypatch.setenv("YBCAVITY_MOT__P1_POPULATION", "0.0")
    assert main(["motdip", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "motdip.csv").read_text().splitlines()[2:]
    assert all(float(row.split(",")[1]) == 1.0 for row in lines)


def test_spectrum_outputs_and_determinism(tmp_path):
    cfg = _write_config(tmp_path, {
        "grids": {"spectrum_mhz": {"start": -3.0, "stop": 9.0,
                                   "step": 0.5}}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    for name in ("spectrum_shift_off.csv", "spectrum_shift_on.csv",
                 "spectrum_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary = json.loads((out_a / "spectrum_summary.json").read_text())
    assert abs(summary["peak_shift_off_mhz"]) <= 0.5
    assert summary["peak_shift_on_mhz"] > 2.0
    assert summary["engineered_shift_mhz"] == pytest.approx(6.8, rel=0.1)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"bare {name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_flat_spectrum_summary_is_strict_json(tmp_path, monkeypatch):
    # no detected counts: the skewnesses are undefined and read null
    monkeypatch.setenv("YBCAVITY_CAVITY__DETECTION_EFFICIENCY", "0")
    monkeypatch.setenv("YBCAVITY_GRIDS__SPECTRUM_MHZ",
                       '{"start": 0, "stop": 0.5, "step": 0.25}')
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    summary = _strict_json(
        (tmp_path / "spectrum_summary.json").read_text())
    assert summary["skewness_shift_off"] is None
    assert summary["skewness_shift_on"] is None


def test_summary_values_map_to_strict_json(tmp_path):
    path = tmp_path / "summary.json"
    write_stats_json(path, {"nan": float("nan"), "inf": math.inf,
                            "minus_inf": -math.inf, "x": 1.5, "n": 3,
                            "label": "up"})
    assert _strict_json(path.read_text()) == {
        "format": "ybcavity.summary.v1", "nan": None, "inf": "inf",
        "minus_inf": "-inf", "x": 1.5, "n": 3, "label": "up"}


def test_snr_sweep_structure(tmp_path):
    cfg = _write_config(tmp_path, {
        "grids": {"snr_power_mw": [0.0, 2.0, 9.0],
                  "snr_waist_um": [20.0, 50.0]}})
    assert main(["snr", "--config", cfg, "--out", str(tmp_path)]) == 0
    power_rows = (tmp_path / "snr_vs_power.csv").read_text().splitlines()[2:]
    snrs = [float(r.split(",")[1]) for r in power_rows]
    assert snrs == sorted(snrs)
    waist_rows = (tmp_path / "snr_vs_waist.csv").read_text().splitlines()[2:]
    by_waist = {float(r.split(",")[0]): float(r.split(",")[1])
                for r in waist_rows}
    assert by_waist[20.0] < by_waist[50.0]


def test_integer_sweep_values_print_as_floats(tmp_path):
    # the config keeps an integer as written; the CSV prints every value
    # as a float
    cfg = _write_config(tmp_path, {
        "grids": {"snr_power_mw": [9], "snr_waist_um": [50]}})
    assert main(["snr", "--config", cfg, "--out", str(tmp_path)]) == 0
    for name, x in (("snr_vs_power.csv", "9.0"), ("snr_vs_waist.csv", "50.0")):
        row = (tmp_path / name).read_text().splitlines()[2]
        assert row.split(",")[0] == x


def test_snr_reference_point_is_the_reference_configuration(tmp_path):
    # 9 mW is the reference power and 50 um the reference waist, so the
    # two sweeps meet in one configuration and print the same SNR
    cfg = _write_config(tmp_path, {
        "grids": {"snr_power_mw": [9.0], "snr_waist_um": [50.0]}})
    assert main(["snr", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [(tmp_path / name).read_text().splitlines()[2]
            for name in ("snr_vs_power.csv", "snr_vs_waist.csv")]
    assert rows[0].split(",")[1] == rows[1].split(",")[1]


def test_scatter_requires_seed(tmp_path, capsys):
    cfg = _small_stochastic(tmp_path)
    assert main(["scatter", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_scatter_outputs_and_correlation_ordering(tmp_path):
    cfg = _small_stochastic(tmp_path, n_runs=150, initial_spin="up")
    out = tmp_path / "data"
    assert main(["scatter", "--config", cfg, "--seed", "11",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "scatter_summary.json").read_text())
    assert summary["pearson_shift_on"] < summary["pearson_shift_off"]
    assert (out / "scatter_shift_off.csv").exists()
    assert (out / "scatter_shift_on.csv").exists()


def test_scatter_reruns_are_byte_identical(tmp_path, monkeypatch):
    # run.threads is still accepted, and changes nothing
    cfg = _small_stochastic(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["scatter", "--config", cfg, "--seed", "3",
                 "--out", str(out_a)]) == 0
    monkeypatch.setenv("YBCAVITY_RUN__THREADS", "4")
    assert main(["scatter", "--config", cfg, "--seed", "3",
                 "--out", str(out_b)]) == 0
    for name in ("scatter_shift_off.csv", "scatter_shift_on.csv",
                 "scatter_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_transit_jsonl_and_summary(tmp_path):
    cfg = _small_stochastic(tmp_path, n_runs=100, initial_spin="up",
                            emit_format="jsonl")
    assert main(["transit", "--config", cfg, "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "transit_records.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"format": "ybcavity.transit.v1"}
    assert len(lines) == 101
    for row in map(json.loads, lines[1:]):
        assert type(row["transit_duration_s"]) is float
        assert type(row["peak_coupling_rad_s"]) is float
    summary = json.loads((tmp_path / "transit_summary.json").read_text())
    assert summary["mean_counts_per_atom"] > 1.0
    assert summary["monte_carlo_snr"] == "inf" \
        or summary["monte_carlo_snr"] > 2.0


def test_bad_config_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["motdip", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    cfg = _write_config(tmp_path, {"unknown_section": {}})
    assert main(["motdip", "--config", cfg]) == 2


def test_threads_is_no_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["motdip", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_format_is_no_flag(tmp_path, capsys):
    # run.emit_format is set in the config file or the environment
    cfg = _small_stochastic(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["transit", "--config", cfg, "--seed", "1", "--out", str(out),
              "--format", "jsonl"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_axial_rms_factor_is_no_config_key(tmp_path, capsys):
    # the coupling is the two-mirror standing wave, with no flat profile
    cfg = _write_config(tmp_path, {"cavity": {"axial_rms_factor": 1.0}})
    out = tmp_path / "out"
    assert main(["motdip", "--config", cfg, "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    # the output directory cannot be created: exit 2 before any solve,
    # and nothing is written
    path = tmp_path / "taken"
    path.write_text("keep\n")
    for command in ("motdip", "spectrum"):
        assert main([command, "--out", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err
    assert path.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_snr_sweep_length_is_bounded_before_any_solve(tmp_path, monkeypatch,
                                                       capsys):
    def solve(*args, **kwargs):
        raise AssertionError("a sweep point was solved")

    monkeypatch.setattr("ybcavity.cli.predicted_snr", solve)
    for name in ("SNR_POWER_MW", "SNR_WAIST_UM"):
        monkeypatch.setenv(f"YBCAVITY_GRIDS__{name}",
                           json.dumps([1.0] * 10_001))
        assert main(["snr", "--out", str(tmp_path / "out")]) == 2
        assert "10000 entries" in capsys.readouterr().err
        monkeypatch.setenv(f"YBCAVITY_GRIDS__{name}",
                           json.dumps([1.0] * 10_000))
        load_config()   # the bound itself is accepted
        monkeypatch.delenv(f"YBCAVITY_GRIDS__{name}")
    assert not (tmp_path / "out").exists()


def test_flag_overrides_reach_the_config(tmp_path):
    cfg = _write_config(tmp_path, {"run": {"n_runs": 40,
                                           "emit_format": "csv"}})
    assert main(["transit", "--config", cfg, "--seed", "2",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "transit_records.csv").exists()


@pytest.mark.parametrize("variable", ["YBCAVITY_DRIVE__POWER",
                                      "YBCAVITY_SHIFT_BEAM__POWER"])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_beam_power_is_a_config_error(tmp_path, monkeypatch,
                                                  capsys, variable, value):
    monkeypatch.setenv(variable, value)
    assert main(["motdip", "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("grids", [
    {"spectrum_mhz": {"stop": float("nan")}},
    {"dip_mhz": {"step": float("inf")}},
    {"snr_power_mw": [0.0, float("inf")]},
    {"snr_waist_um": [float("nan")]},
])
def test_non_finite_grid_is_a_config_error(tmp_path, grids):
    cfg = _write_config(tmp_path, {"grids": grids})
    assert main(["motdip", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("variable, value", [
    ("YBCAVITY_RUN__N_RUNS", "1.5"),
    ("YBCAVITY_RUN__THREADS", "true"),
    ("YBCAVITY_RUN__MASTER_SEED", "2.0"),
])
def test_non_integer_run_fields_are_config_errors(tmp_path, monkeypatch,
                                                  capsys, variable, value):
    monkeypatch.setenv(variable, value)
    assert main(["motdip", "--out", str(tmp_path)]) == 2
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize("variable, value", [
    ("YBCAVITY_GRIDS__SNR_POWER_MW", '["a"]'),
    ("YBCAVITY_GEOMETRY__DROP_HEIGHT", '"x"'),
    ("YBCAVITY_CAVITY__KAPPA", '"x"'),
])
def test_string_for_a_number_is_a_config_error(tmp_path, monkeypatch,
                                                capsys, variable, value):
    monkeypatch.setenv(variable, value)
    assert main(["motdip", "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("variable, value", [
    (None, '{"mot": {"Gamma0": NaN}}'),
    ("YBCAVITY_RUN__ATOM_RATE", "NaN"),
    ("YBCAVITY_RUN__WINDOW", "Infinity"),
    ("YBCAVITY_CAVITY__DARK_RATE_SIGMA_PLUS_PER_MS", "NaN"),
    ("YBCAVITY_CAVITY__KAPPA", "Infinity"),
    ("YBCAVITY_RUN__LIGHT_SHIFT_ON", '"no"'),
    ("YBCAVITY_GEOMETRY__IMPACT_RADIUS_FACTOR", "true"),
    ("YBCAVITY_MOT__P1_POPULATION", "Infinity"),
    (None, '{"mot": {"natural_linewidth_D1": 0}}'),   # divides by zero
    ("YBCAVITY_RUN__MASTER_SEED", str(2 ** 64)),   # beyond the Philox key
    ("YBCAVITY_DRIVE__DETUNING", "1e9"),   # a key the drive does not have
    ("YBCAVITY_GRIDS__DIP_MHZ__STEP", "1e-300"),   # ~10^303 grid points
    ("YBCAVITY_RUN__WINDOW", "1e300"),   # ~10^303 atoms per window
    ("YBCAVITY_CAVITY__MODE_WAIST", "3e-5"),   # not the geometry's waist
    (None, "[]"),                        # documents must be JSON objects
    (None, "[1, 2]"),
    (None, '{"run": {"output_path": "caf\u00e9"}}'.encode("latin-1")),
])
def test_bad_value_exits_2_and_writes_no_data(tmp_path, monkeypatch, capsys,
                                              variable, value):
    # a value given as None is a config file's text (bytes: not UTF-8)
    out = tmp_path / "out"
    args = ["motdip", "--out", str(out)]
    if variable is None:
        path = tmp_path / "config.json"
        if isinstance(value, bytes):
            path.write_bytes(value)
        else:
            path.write_text(value)
        args += ["--config", str(path)]
    else:
        monkeypatch.setenv(variable, value)
    assert main(args) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, variable, value", [
    ("scatter", "YBCAVITY_SHIFT_BEAM__DETUNING", "0"),   # shift-on half
    ("scatter", "YBCAVITY_RUN__N_RUNS", "1"),   # no correlation of one
    ("snr", "YBCAVITY_GRIDS__SNR_WAIST_UM", "[1e160]"),   # the waist sweep
    # over the dark counts a window may hold: exit 2, not numpy's Poisson
    ("scatter", "YBCAVITY_CAVITY__DARK_RATE_SIGMA_PLUS_PER_MS", "1e300"),
    # no light on the fall lines: an SNR of 0/0, not inf in the CSV
    ("snr", "YBCAVITY_DRIVE__POWER", "0"),
    ("snr", "YBCAVITY_DRIVE__AXIS_OFFSET", "1e-3"),
])
def test_a_failing_command_writes_no_data(tmp_path, monkeypatch, command,
                                          variable, value):
    # the failure comes after the first half of the data is computed, or
    # (the dark counts) when the config is loaded, before any directory
    cfg = _small_stochastic(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setenv(variable, value)
    assert main([command, "--config", cfg, "--seed", "1",
                 "--out", str(out)]) in (2, 3)
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("variable, value", [
    ("YBCAVITY_CAVITY__G0", "1e300"),   # overflows g0 ** 2
    ("YBCAVITY_DRIVE__WAIST", "1e-300"),   # peak intensity divides by 0
    ("YBCAVITY_GRIDS__SNR_WAIST_UM", "[1e160]"),   # overflows (v / w) ** 2
])
def test_arithmetic_failure_exits_3(tmp_path, monkeypatch, capsys,
                                    variable, value):
    # values every config rule accepts, that no float can carry through
    monkeypatch.setenv(variable, value)
    assert main(["snr", "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_every_key_can_be_set_from_the_environment(tmp_path, monkeypatch):
    # every key of every section, named in upper case as shells do
    text = dump_config(RunConfig())

    def leaves(doc, path):
        for key, value in doc.items():
            if isinstance(value, dict):
                yield from leaves(value, path + [key])
            else:
                yield path + [key], value

    for path, value in leaves(json.loads(text), []):
        monkeypatch.setenv("YBCAVITY_" + "__".join(path).upper(),
                           json.dumps(value))
    assert main(["motdip", "--out", str(tmp_path)]) == 0
    assert dump_config(load_config()) == text


def test_one_mode_waist_set_in_both_sections_runs(tmp_path, monkeypatch):
    # the cavity's waist sets the coupling, the geometry's the impact disc;
    # one set alone is a config error
    for section in ("CAVITY", "GEOMETRY"):
        monkeypatch.setenv(f"YBCAVITY_{section}__MODE_WAIST", "3e-5")
    assert main(["motdip", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("variable, value", [
    ("YBCAVITY_GEOMETRY__TIME_STEP", "1e-12"),
    ("YBCAVITY_GEOMETRY__SIMULATION_HALFSPAN", "1.0"),
    ("YBCAVITY_GEOMETRY__SIMULATION_HALFSPAN", "0.007"),
])
def test_geometry_that_cannot_be_simulated_is_a_config_error(
        tmp_path, monkeypatch, capsys, variable, value):
    # motdip builds the whole config but no trajectory
    monkeypatch.setenv(variable, value)
    assert main(["motdip", "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "snr", "scatter",
                                     "transit", "motdip"])
def test_only_the_linear_drive_and_pi_shift_beam_run(tmp_path, monkeypatch,
                                                     command):
    # the drive must be linear_y and the shift beam pi, set either way
    args = [command, "--seed", "1", "--out", str(tmp_path)]
    for section, pol in (("drive", "sigma_plus"), ("drive", "pi"),
                         ("shift_beam", "sigma_plus")):
        cfg = _write_config(tmp_path, {section: {"polarization": pol}})
        assert main(["--config", cfg] + args) == 2
        monkeypatch.setenv(f"YBCAVITY_{section.upper()}__POLARIZATION", pol)
        assert main(args) == 2
        monkeypatch.delenv(f"YBCAVITY_{section.upper()}__POLARIZATION")
