"""Structured run configuration: one JSON document covering every
parameter set, with environment-variable overrides for CI.

Layout: named sections ("scheme", "cavity", "drive", "shift_beam",
"geometry", "mot", "run", "grids") whose keys mirror the dataclass
fields.  `dump_config(parse(...))` is byte-idempotent: the emitter sorts
keys and prints floats via repr, so a config file can serve as a
regression fixture.

Environment overrides use the prefix YBCAVITY_ with double underscores
for nesting, e.g. ``YBCAVITY_RUN__MASTER_SEED=7`` or
``YBCAVITY_SHIFT_BEAM__POWER=0.004``.  Values are parsed as JSON with a
fallback to plain strings.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import constants
from .atomic import LevelScheme, Polarization, build_level_scheme
from .dynamics import CavityParams
from .errors import ConfigError
from .lightshift import BeamParams
from .observables import MotParams
from .transit import TransitConfig, TransitGeometry, default_transit_config

ENV_PREFIX = "YBCAVITY_"

EMIT_FORMATS = ("csv", "jsonl")


@dataclass(frozen=True)
class GridSpec:
    """Inclusive-start arithmetic grid; stop is covered when it lands on
    a step multiple."""

    start: float
    stop: float
    step: float

    def validate(self) -> "GridSpec":
        if not all(math.isfinite(v) for v in (self.start, self.stop,
                                              self.step)):
            raise ConfigError(f"grid values must be finite, got {self}")
        if not self.step > 0:
            raise ConfigError(f"grid step must be > 0, got {self.step}")
        if self.stop < self.start:
            raise ConfigError("grid stop must be >= start")
        return self

    def values(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return self.start + self.step * np.arange(n)


@dataclass(frozen=True)
class Grids:
    """Sweep grids for the emitting commands (MHz, mW, um units as
    named)."""

    spectrum_mhz: GridSpec = field(
        default_factory=lambda: GridSpec(-10.0, 10.0, 0.25))
    dip_mhz: GridSpec = field(
        default_factory=lambda: GridSpec(-400.0, 400.0, 5.0))
    snr_power_mw: tuple = (0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0)
    snr_waist_um: tuple = (20.0, 30.0, 40.0, 50.0)

    def validate(self) -> "Grids":
        self.spectrum_mhz.validate()
        self.dip_mhz.validate()
        if not self.snr_power_mw or any(not 0 <= p < math.inf
                                        for p in self.snr_power_mw):
            raise ConfigError("snr_power_mw must be nonempty, all finite "
                              "and >= 0")
        if not self.snr_waist_um or any(not 0 < w < math.inf
                                        for w in self.snr_waist_um):
            raise ConfigError("snr_waist_um must be nonempty, all finite "
                              "and > 0")
        return self


@dataclass(frozen=True)
class RunSection:
    """Stochastic-run bookkeeping: what is measured and how it is
    emitted.  master_seed may stay None for deterministic commands but
    is required by the sampling ones.  threads is validated but has no
    effect: the ensembles run on one thread."""

    light_shift_on: bool = True
    excitation_detuning: float = None
    atom_rate: float = constants.ATOM_RATE
    window: float = constants.MEASUREMENT_WINDOW
    initial_spin: str = "random"
    n_runs: int = 2000
    master_seed: int = None
    threads: int = 1
    output_path: str = "."
    emit_format: str = "csv"

    def validate(self) -> "RunSection":
        for name in ("n_runs", "threads", "master_seed"):
            value = getattr(self, name)
            if name == "master_seed" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.emit_format not in EMIT_FORMATS:
            raise ConfigError(f"emit_format must be one of {EMIT_FORMATS}, "
                              f"got {self.emit_format!r}")
        if self.master_seed is not None and self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        return self


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, grouped by the module that owns it."""

    scheme: LevelScheme
    cavity: CavityParams
    drive: BeamParams
    shift_beam: BeamParams
    geometry: TransitGeometry
    mot: MotParams
    run: RunSection
    grids: Grids

    def validate(self) -> "RunConfig":
        self.mot.validate()
        self.run.validate()
        self.grids.validate()
        # the scheme, cavity, beams and geometry
        self.to_transit_config().validate()
        return self

    def to_transit_config(self) -> TransitConfig:
        return TransitConfig(
            scheme=self.scheme, cavity=self.cavity, drive=self.drive,
            shift_beam=self.shift_beam, geometry=self.geometry,
            light_shift_on=self.run.light_shift_on,
            excitation_detuning=self.run.excitation_detuning,
            atom_rate=self.run.atom_rate, window=self.run.window,
            initial_spin=self.run.initial_spin)


def default_run_config() -> RunConfig:
    """Reference operating point for every section; the physics sections
    are those of `default_transit_config`."""
    transit = default_transit_config()
    return RunConfig(
        scheme=transit.scheme, cavity=transit.cavity, drive=transit.drive,
        shift_beam=transit.shift_beam, geometry=transit.geometry,
        mot=MotParams(),
        run=RunSection(),
        grids=Grids(),
    ).validate()


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing

_SCHEME_KEYS = ("gamma_P1", "gamma_D1_line", "branching_D1_to_P0",
                "d1_hyperfine_splitting")


def _section_from_dict(cls, data: dict, section: str):
    known = {f.name for f in fields(cls)}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"unknown keys in section {section!r}: "
                          f"{sorted(bad)}")
    return cls(**data)


def _beam_from_dict(data: dict, section: str) -> BeamParams:
    data = dict(data)
    if "polarization" in data:
        name = str(data["polarization"]).upper()
        if name not in Polarization.__members__:
            raise ConfigError(f"bad polarization in {section!r}: "
                              f"{data['polarization']!r}")
        data["polarization"] = Polarization[name]
    return _section_from_dict(BeamParams, data, section)


def _grids_from_dict(data: dict, base: "Grids") -> Grids:
    data = dict(data)
    for key in ("spectrum_mhz", "dip_mhz"):
        if key in data:
            merged = {**asdict(getattr(base, key)), **dict(data[key])}
            data[key] = _section_from_dict(GridSpec, merged, f"grids.{key}")
    for key in ("snr_power_mw", "snr_waist_um"):
        if key in data:
            data[key] = tuple(data[key])
    return _section_from_dict(Grids, data, "grids")


def config_from_dict(document: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document;
    omitted sections and keys keep their defaults."""
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    known = {"scheme", "cavity", "drive", "shift_beam", "geometry", "mot",
             "run", "grids"}
    bad = set(document) - known
    if bad:
        raise ConfigError(f"unknown config sections: {sorted(bad)}")

    base = default_run_config()
    scheme_over = dict(document.get("scheme", {}))
    unknown = set(scheme_over) - set(_SCHEME_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in section 'scheme': "
                          f"{sorted(unknown)}")
    try:
        cfg = RunConfig(
            scheme=build_level_scheme(**scheme_over),
            cavity=replace(base.cavity, **document.get("cavity", {}))
            if document.get("cavity") else base.cavity,
            drive=_beam_from_dict({**_beam_to_dict(base.drive),
                                   **document.get("drive", {})}, "drive"),
            shift_beam=_beam_from_dict({**_beam_to_dict(base.shift_beam),
                                        **document.get("shift_beam", {})},
                                       "shift_beam"),
            geometry=replace(base.geometry, **document.get("geometry", {}))
            if document.get("geometry") else base.geometry,
            mot=replace(base.mot, **document.get("mot", {}))
            if document.get("mot") else base.mot,
            run=replace(base.run, **document.get("run", {}))
            if document.get("run") else base.run,
            grids=_grids_from_dict(document.get("grids", {}), base.grids)
            if document.get("grids") else base.grids,
        ).validate()
    except TypeError as exc:  # an unknown key, or a value of the wrong type
        raise ConfigError(f"bad config key or value: {exc}") from exc
    return cfg


def _beam_to_dict(beam: BeamParams) -> dict:
    d = asdict(beam)
    d["polarization"] = beam.polarization.name.lower()
    return d


def _grids_to_dict(grids: Grids) -> dict:
    return {"spectrum_mhz": asdict(grids.spectrum_mhz),
            "dip_mhz": asdict(grids.dip_mhz),
            "snr_power_mw": list(grids.snr_power_mw),
            "snr_waist_um": list(grids.snr_waist_um)}


def config_to_dict(config: RunConfig) -> dict:
    scheme = {k: getattr(config.scheme, k) for k in _SCHEME_KEYS}
    return {"scheme": scheme,
            "cavity": asdict(config.cavity),
            "drive": _beam_to_dict(config.drive),
            "shift_beam": _beam_to_dict(config.shift_beam),
            "geometry": asdict(config.geometry),
            "mot": asdict(config.mot),
            "run": asdict(config.run),
            "grids": _grids_to_dict(config.grids)}


class _ReprFloat(float):
    """float whose json rendering is repr(), for byte-stable emission."""

    def __repr__(self):
        return float.__repr__(self)


def dump_config(config: RunConfig) -> str:
    """Canonical JSON text: sorted keys, two-space indent, repr floats,
    trailing newline."""
    def posh(obj):
        if isinstance(obj, dict):
            return {k: posh(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [posh(v) for v in obj]
        if isinstance(obj, bool):
            return obj
        if isinstance(obj, float):
            return _ReprFloat(obj)
        return obj

    return json.dumps(posh(config_to_dict(config)), indent=2,
                      sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# files and environment


def _parse_env_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_env_overrides(document: dict, environ=None) -> dict:
    """Overlay YBCAVITY_SECTION__KEY=value pairs onto a config document.
    Unknown sections raise, so typos fail fast in CI."""
    environ = os.environ if environ is None else environ
    out = {k: dict(v) if isinstance(v, dict) else v
           for k, v in document.items()}
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):].lower().split("__")
        if len(path) == 2:
            section, key = path
        elif len(path) == 3 and path[0] == "grids":
            section, key = path[0], path[1]  # grids.<grid>.<field>
            sub = out.setdefault(section, {}).setdefault(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"cannot override {name}: not a mapping")
            sub[path[2]] = _parse_env_value(raw)
            continue
        else:
            raise ConfigError(f"malformed override variable {name}; expected "
                              f"{ENV_PREFIX}SECTION__KEY")
        out.setdefault(section, {})
        if not isinstance(out[section], dict):
            raise ConfigError(f"cannot override {name}: not a mapping")
        out[section][key] = _parse_env_value(raw)
    return out


def load_config(path=None, environ=None) -> RunConfig:
    """Read a JSON config file (defaults when path is None), overlay
    environment overrides, validate."""
    if path is None:
        document = {}
    else:
        try:
            with open(path, "r") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: "
                              f"{exc}") from exc
    document = apply_env_overrides(document, environ)
    return config_from_dict(document)
