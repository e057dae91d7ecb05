"""Exception types shared across the package, and the rules config values
obey.

The CLI maps these onto distinct exit codes (config problems vs numerical
failures), so library code should raise the most specific type that applies.
Each config dataclass field declares its default and its rule in one place
(`rule`).  Every config dataclass runs `check` in its __post_init__, after
which it adds only the rules that span fields, so no config that breaks a
rule can be built or `replace`d into existence.
"""

import sys
from dataclasses import MISSING, field, fields


class YbCavityError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(YbCavityError):
    """Invalid or inconsistent user-supplied configuration."""


class ResonanceError(ConfigError):
    """A perturbative light-shift formula was evaluated too close to resonance."""


class ModelError(YbCavityError):
    """Inconsistent model assembly (dimension mismatches, bad operators)."""


class NumericalError(YbCavityError):
    """A solver failed to converge or produced an unusable result."""


def rule(default=MISSING, kind=float, *, gt=None, ge=None, le=None,
         choices=None):
    """A config dataclass field: its default and the rule its values obey.

    kind is float, int, bool, str, tuple (of floats) or a nested config
    dataclass; a field whose default is None also takes None.  gt, ge and
    le bound a number, or each element of a tuple; choices lists the
    values allowed.
    """
    return field(default=default, metadata={"rule": dict(
        kind=kind, gt=gt, ge=ge, le=le, choices=choices)})


def check(obj):
    """Enforce the rule of every field of a config dataclass.

    A float is finite, and an int is accepted as one without conversion; a
    bool is never a number, and a number or a string never a bool.  Any
    other value has exactly the declared type, so a ShiftBeam is no
    BeamParams; a nested config dataclass checked itself when it was built.
    """
    for f in fields(obj):
        if "rule" in f.metadata:
            _check_value(f.name, getattr(obj, f.name), f.default,
                         **f.metadata["rule"])


def _check_value(name, value, default, kind, gt, ge, le, choices):
    if value is None and default is None:
        return
    if kind is tuple:
        if not isinstance(value, tuple):
            raise ConfigError(f"{name} must be a list of numbers, "
                              f"got {value!r}")
        for item in value:
            _check_value(name, item, MISSING, float, gt, ge, le, choices)
        return
    if kind is float:
        # the bound rejects NaN, +/-inf and an int too large for a float
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be a finite number, "
                              f"got {value!r}")
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    elif type(value) is not kind:   # a subclass may carry unread fields
        raise ConfigError(f"{name} must be a {kind.__name__}, "
                          f"got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
    if (gt is not None and not value > gt) \
            or (ge is not None and not value >= ge) \
            or (le is not None and not value <= le):
        bounds = " and ".join(f"{op} {bound}" for op, bound in
                              ((">", gt), (">=", ge), ("<=", le))
                              if bound is not None)
        raise ConfigError(f"{name} must be {bounds}, got {value!r}")
