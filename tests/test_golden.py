"""Golden outputs: the five CLI commands at seed 7 on a reduced config,
against the reference in tests/golden/seed7.json.

The record files and motdip.csv must match byte for byte (SHA-256); the
spectrum, SNR and summary values to 1e-12 relative.  transit and scatter
run once more in 128-run chunks, so that runs 128-299 draw from pooled
streams re-keyed in place, against the same reference.  The text that
`--print-defaults` prints must equal tests/golden/defaults.json byte for
byte, so that a default cannot move unseen.  A change that moves the
outputs or a default on purpose rewrites both references with

    python tests/test_golden.py

and lists every changed value in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

REFERENCE = Path(__file__).resolve().parent / "golden" / "seed7.json"
DEFAULTS = REFERENCE.parent / "defaults.json"   # `--print-defaults`' text
CONFIG = {"run": {"n_runs": 300},
          "grids": {"spectrum_mhz": {"start": -7.25, "stop": 6.75,
                                     "step": 7.0},   # -7.25: the red tail
                    "snr_power_mw": [4.0, 9.0], "snr_waist_um": [40.0]}}
COMMANDS = ("motdip", "snr", "spectrum", "transit", "scatter")
SAMPLED = ("transit", "scatter")   # the commands that draw from streams
HASHED = ("motdip.csv", "scatter_shift_off.csv", "scatter_shift_on.csv",
          "transit_records.csv")
VALUED = ("snr_vs_power.csv", "snr_vs_waist.csv", "spectrum_shift_off.csv",
          "spectrum_shift_on.csv", "scatter_summary.json",
          "spectrum_summary.json", "transit_summary.json")


def _values(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    tag, header, *rows = path.read_text().splitlines()
    return {"tag": tag, "columns": header.split(","),
            "rows": [[float(c) for c in row.split(",")] for row in rows]}


def run_commands(workdir: Path, commands=COMMANDS) -> dict:
    """Run the commands in-process into workdir; for all five, the
    document the reference holds."""
    from ybcavity.cli import main

    config = workdir / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = workdir / "out"
    for command in commands:
        code = main(["--config", str(config), "--seed", "7",
                     "--out", str(out), command])
        assert code == 0, f"{command} exited {code}"
    return {"numpy": np.__version__,
            "sha256": {name: hashlib.sha256((out / name).read_bytes())
                       .hexdigest() for name in HASHED
                       if (out / name).exists()},
            "values": {name: _values(out / name) for name in VALUED
                       if (out / name).exists()}}


def printed_defaults() -> str:
    """What `ybcavity --print-defaults` writes to stdout."""
    from ybcavity.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["--print-defaults"]) == 0
    return out.getvalue()


def _close(actual, expected) -> bool:
    if isinstance(expected, dict):
        return actual.keys() == expected.keys() and all(
            _close(actual[k], expected[k]) for k in expected)
    if isinstance(expected, list):
        return len(actual) == len(expected) and all(
            map(_close, actual, expected))
    if isinstance(expected, float) and not isinstance(actual, bool):
        return (math.isnan(actual) and math.isnan(expected)) or \
            math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0)
    return type(actual) is type(expected) and actual == expected


def _clear_environment(mp):
    for name in [k for k in os.environ if k.startswith("YBCAVITY_")]:
        mp.delenv(name)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        _clear_environment(mp)
        return run_commands(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def rekeyed_outputs(tmp_path_factory):
    from ybcavity import transit

    with pytest.MonkeyPatch.context() as mp:
        _clear_environment(mp)
        mp.setattr(transit, "_CHUNK", 128)
        return run_commands(tmp_path_factory.mktemp("rekeyed"), SAMPLED)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def _mismatch(reference, what):
    return (f"{what} differ from {REFERENCE.name}, which pins numpy "
            f"{reference['numpy']}'s Generator streams (this run: numpy "
            f"{np.__version__}); if the change is meant, rewrite the "
            f"reference with `python tests/test_golden.py` and list every "
            f"changed value in CHANGES.md")


def test_record_files_are_byte_identical(outputs, reference):
    for name, digest in reference["sha256"].items():
        assert outputs["sha256"][name] == digest, _mismatch(reference, name)


@pytest.mark.parametrize("name", VALUED)
def test_deterministic_values_match(outputs, reference, name):
    assert _close(outputs["values"][name], reference["values"][name]), \
        _mismatch(reference, f"the values of {name}")


def test_rekeyed_streams_give_the_same_outputs(rekeyed_outputs, reference):
    assert set(rekeyed_outputs["sha256"]) == {
        "transit_records.csv", "scatter_shift_off.csv",
        "scatter_shift_on.csv"}
    assert set(rekeyed_outputs["values"]) == {"transit_summary.json",
                                              "scatter_summary.json"}
    for name, digest in rekeyed_outputs["sha256"].items():
        assert digest == reference["sha256"][name], \
            _mismatch(reference, f"{name} in 128-run chunks")
    for name, values in rekeyed_outputs["values"].items():
        assert _close(values, reference["values"][name]), \
            _mismatch(reference, f"the values of {name} in 128-run chunks")


def test_printed_defaults_are_byte_identical():
    assert printed_defaults() == DEFAULTS.read_text(), (
        f"--print-defaults differs from {DEFAULTS.name}; if a default moved "
        f"on purpose, rewrite it with `python tests/test_golden.py` and "
        f"list the moved default in CHANGES.md")


if __name__ == "__main__":
    sys.path.insert(0, str(REFERENCE.parents[2] / "src"))
    for key in [k for k in os.environ if k.startswith("YBCAVITY_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as tmp:
        document = run_commands(Path(tmp))
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(document, indent=1, sort_keys=True)
                         + "\n")
    DEFAULTS.write_text(printed_defaults())
    print(f"wrote {REFERENCE} and {DEFAULTS}")
