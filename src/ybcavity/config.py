"""Structured run configuration: one JSON document covering every
parameter set, with environment-variable overrides for CI.

Layout: named sections (`SECTIONS`) whose keys are the fields of their
dataclass; the "run" section also holds the fields of TransitConfig
that are not sections (light_shift_on, excitation_detuning, atom_rate,
window, initial_spin).  Every value must obey its field's declared rule
(`errors.rule`), which its dataclass checks when it is built, so a wrong
kind, a non-finite number, a value out of range or a cavity.mode_waist
that is not geometry.mode_waist is a ConfigError.  `dump_config(parse(...))`
is byte-idempotent: the emitter sorts keys and prints floats via repr, so
a config file can serve as a regression fixture.

Environment overrides use the prefix YBCAVITY_ with double underscores
for nesting, e.g. ``YBCAVITY_RUN__MASTER_SEED=7``,
``YBCAVITY_MOT__GAMMA0=0.4`` or ``YBCAVITY_GRIDS__DIP_MHZ__STEP=2``;
keys match without regard to case.  Values are parsed as JSON with a
fallback to plain strings.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from .atomic import LevelScheme
from .errors import ConfigError, check, rule
from .lightshift import BeamParams, ShiftBeam
from .observables import MotParams
from .ratemodel import CavityParams
from .transit import EMIT_FORMATS, TransitConfig, TransitGeometry

ENV_PREFIX = "YBCAVITY_"
_MAX_GRID_POINTS = 10_000   # each point of a sweep is a full solve


@dataclass(frozen=True)
class GridSpec:
    """Inclusive-start arithmetic grid of at most `_MAX_GRID_POINTS`
    points; stop is covered when it lands on a step multiple."""

    start: float = rule()
    stop: float = rule()
    step: float = rule(gt=0.0)

    def __post_init__(self):
        check(self)
        if self.stop < self.start:
            raise ConfigError("grid stop must be >= start")
        # compared as a float, so an overflowing ratio is caught too
        if not self._steps() < _MAX_GRID_POINTS:
            raise ConfigError(f"grid has over {_MAX_GRID_POINTS} points")

    def _steps(self) -> float:
        """Whole steps from start to stop, before flooring."""
        return (self.stop - self.start) / self.step + 1e-9

    def values(self) -> np.ndarray:
        n = int(math.floor(self._steps())) + 1
        return self.start + self.step * np.arange(n)


@dataclass(frozen=True)
class Grids:
    """Sweep grids for the emitting commands (MHz, mW, um units as
    named); each has at most `_MAX_GRID_POINTS` points."""

    spectrum_mhz: GridSpec = rule(GridSpec(-10.0, 10.0, 0.25), GridSpec)
    dip_mhz: GridSpec = rule(GridSpec(-400.0, 400.0, 5.0), GridSpec)
    snr_power_mw: tuple = rule((0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 9.0), tuple,
                               ge=0.0)
    snr_waist_um: tuple = rule((20.0, 30.0, 40.0, 50.0), tuple, gt=0.0)

    def __post_init__(self):
        check(self)
        for name in ("snr_power_mw", "snr_waist_um"):
            if not 0 < len(getattr(self, name)) <= _MAX_GRID_POINTS:
                raise ConfigError(f"{name} must have 1 to "
                                  f"{_MAX_GRID_POINTS} entries")


@dataclass(frozen=True)
class RunSection:
    """Stochastic-run bookkeeping: how many runs, their seed, and where
    and how the records are emitted.  master_seed may stay None for
    deterministic commands but is required by the sampling ones (it keys
    a Philox stream, hence the 64-bit bound).  threads is checked but
    sets nothing: the ensembles run on one thread, and the spin-model
    solves of the rate tables on a pool that sizes itself from the CPUs
    the process may use; it stays so that config files that set it
    still load."""

    n_runs: int = rule(2000, int, ge=1)
    master_seed: int = rule(None, int, ge=0, le=2 ** 64 - 1)
    threads: int = rule(1, int, ge=1)
    output_path: str = rule(".", str)
    emit_format: str = rule("csv", str, choices=EMIT_FORMATS)

    __post_init__ = check   # no rule spans fields


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: the transit configuration (beams,
    cavity, fall geometry and what a run measures), the trap-loss
    parameters, the run bookkeeping and the sweep grids."""

    transit: TransitConfig = rule(TransitConfig(), TransitConfig)
    mot: MotParams = rule(MotParams(), MotParams)
    run: RunSection = rule(RunSection(), RunSection)
    grids: Grids = rule(Grids(), Grids)

    __post_init__ = check   # each part checked itself when it was built

    @property
    def geometry(self) -> TransitGeometry:
        """`transit.geometry`, kept only for perfbench/checks.py."""
        return self.transit.geometry

    def to_transit_config(self) -> TransitConfig:
        """`transit`, kept only for perfbench/checks.py."""
        return self.transit


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing

# Section name -> the dataclass whose fields are its keys.  The transit
# sections are fields of TransitConfig, the rest of RunConfig; the "run"
# section also carries TransitConfig's own fields (light_shift_on, ...).
SECTIONS = {"scheme": LevelScheme, "cavity": CavityParams,
            "drive": BeamParams, "shift_beam": ShiftBeam,
            "geometry": TransitGeometry, "mot": MotParams,
            "run": RunSection, "grids": Grids}

_TRANSIT_KEYS = frozenset(f.name for f in fields(TransitConfig))


def _merge(obj, data, where: str = ""):
    """obj with the values of a parsed JSON object put in: a nested
    dataclass merges in turn, a list is a tuple."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    bad = set(data) - {f.name for f in fields(obj)}
    if bad:
        raise ConfigError(f"unknown keys in section {where!r}: "
                          f"{sorted(bad)}")
    changes = {}
    for key, value in data.items():
        current = getattr(obj, key)
        if is_dataclass(current):
            value = _merge(current, value, f"{where}.{key}" if where else key)
        elif isinstance(value, list):
            value = tuple(value)
        changes[key] = value
    return replace(obj, **changes)


def config_from_dict(document: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document; omitted sections and
    keys keep their defaults."""
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    bad = set(document) - set(SECTIONS)
    if bad:
        raise ConfigError(f"unknown config sections: {sorted(bad)}")
    parts, transit = {}, {}
    for name, data in document.items():
        if name == "run" and isinstance(data, dict):
            parts["run"] = {k: v for k, v in data.items()
                            if k not in _TRANSIT_KEYS}
            transit.update((k, v) for k, v in data.items()
                           if k in _TRANSIT_KEYS)
        else:
            (transit if name in _TRANSIT_KEYS else parts)[name] = data
    base = RunConfig()
    base = replace(base, transit=_merge(base.transit, transit))
    return _merge(base, parts)


def config_to_dict(config: RunConfig) -> dict:
    """The config document, the inverse of `config_from_dict`; grids keep
    their tuples, which `json` writes as lists."""
    document = asdict(config)
    for key, value in document.pop("transit").items():
        (document if key in SECTIONS else document["run"])[key] = value
    return document


def dump_config(config: RunConfig) -> str:
    """Canonical JSON text: sorted keys, two-space indent, floats as
    repr() gives them (json's own rendering), trailing newline."""
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# files and environment


def _parse_env_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _match(keys, part: str) -> str:
    """The key in `keys` that `part` names regardless of case, else part
    in lower case."""
    return next((k for k in keys if k.lower() == part.lower()), part.lower())


def apply_env_overrides(document: dict, environ=None) -> dict:
    """Overlay YBCAVITY_SECTION__KEY=value pairs (and deeper paths, such as
    YBCAVITY_GRIDS__DIP_MHZ__STEP) onto a config document.  Each part of a
    path names a key of the canonical document, matched without regard to
    case; an unknown part is kept, lowercased, so typos fail fast in CI."""
    environ = os.environ if environ is None else environ
    names = sorted(name for name in environ if name.startswith(ENV_PREFIX))
    out = dict(document)
    canonical = config_to_dict(RunConfig()) if names else {}
    for name in names:
        path = name[len(ENV_PREFIX):].split("__")
        if len(path) < 2:
            raise ConfigError(f"malformed override variable {name}; expected "
                              f"{ENV_PREFIX}SECTION__KEY")
        node, known = out, canonical
        for part in path[:-1]:
            key = _match(known, part)
            child = node.get(key, {})
            if not isinstance(child, dict):
                raise ConfigError(f"cannot override {name}: not a mapping")
            node[key] = dict(child)
            node = node[key]
            known = known.get(key) if isinstance(known.get(key), dict) else {}
        node[_match(known, path[-1])] = _parse_env_value(environ[name])
    return out


def load_config(path=None, environ=None) -> RunConfig:
    """Read a JSON config file (defaults when path is None) and overlay
    environment overrides."""
    if path is None:
        document = {}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(document, dict):
            raise ConfigError(f"config {path} must be a JSON object")
    document = apply_env_overrides(document, environ)
    return config_from_dict(document)
