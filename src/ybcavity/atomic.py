"""Level structure of the I = 1/2 ytterbium isotope used throughout.

The model keeps three electronic terms: the 1S0 ground state (F = 1/2, the
nuclear-spin qubit), the 3P1 F' = 3/2 excited manifold reached by the 556-nm
light, and the 3D1 level (F'' = 1/2 and 3/2) that the 1539-nm beam couples to.
Magnetic quantum numbers are stored as twice-the-value integers (m2 = 2m) so
that all bookkeeping stays exact; the public helpers accept ordinary
half-integer floats.

The two stretch transitions |m = +1/2> <-> |m' = +3/2> (sigma+) and
|m = -1/2> <-> |m' = -3/2> (sigma-) are cyclic: their excited states have a
single decay path back to the original ground sublevel.  Everything the rest
of the package does rests on that structure plus the 3:2:1 weight ratio of
the sigma-stretch : pi : sigma-cross couplings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import constants
from .errors import ConfigError, check, rule


class Polarization(Enum):
    """Spherical photon polarizations, plus the linear drive combination.

    The q value is oriented as q = m_excited - m_ground for both absorption
    and emission labels, so a sigma_plus decay photon lowers the atomic m.
    """

    SIGMA_PLUS = +1
    PI = 0
    SIGMA_MINUS = -1
    LINEAR_Y = "linear_y"   # equal sigma+ / sigma- superposition, no pi part

    @property
    def q(self) -> int:
        if self is Polarization.LINEAR_Y:
            raise ValueError("linear_y has no single spherical component q")
        return self.value


def _as_m2(m: float, name: str = "m") -> int:
    m2 = round(2.0 * m)
    if abs(2.0 * m - m2) > 1e-9:
        raise ValueError(f"{name} = {m} is not a half-integer")
    return int(m2)


@dataclass(frozen=True)
class LevelScheme:
    """Immutable container for the rates and intervals of the level model.

    gamma_P1 and gamma_D1_line are angular rates (rad/s); gamma_P1 is the
    HWHM-convention half linewidth (population decay is 2*gamma_P1), while
    gamma_D1_line is the full 3P1-3D1 partial decay rate.  The hyperfine
    splitting is a plain frequency in Hz.
    """

    gamma_P1: float = rule(constants.GAMMA_P1, gt=0.0)
    gamma_D1_line: float = rule(constants.GAMMA_D1_LINE, gt=0.0)
    branching_D1_to_P0: float = rule(constants.BRANCHING_D1_TO_P0, ge=0.0,
                                     le=1.0)
    d1_hyperfine_splitting: float = rule(constants.D1_HYPERFINE_SPLITTING_HZ,
                                         gt=0.0)

    validate = check   # no rule spans fields


def build_level_scheme(**overrides) -> LevelScheme:
    """Assemble and validate a LevelScheme; kwargs override the defaults."""
    try:
        scheme = LevelScheme(**overrides)
    except TypeError as exc:   # a keyword that names no field
        raise ConfigError(f"unknown level-scheme parameter: {exc}") from exc
    return scheme.validate()


def transition_weight(ground_m: float, polarization: Polarization) -> float:
    """Squared coupling of |1S0, m> to the 3P1(F'=3/2) sublevel reached by
    the given polarization, normalized so the cyclic transitions are 1.

    Weights from one ground state come out in the ratio 3:2:1 for
    sigma-stretch : pi : sigma-cross.
    """
    m2 = _as_m2(ground_m, "ground_m")
    if abs(m2) != 1:
        raise ValueError(f"ground_m must be +/-1/2, got {ground_m}")
    if polarization is Polarization.LINEAR_Y:
        raise ValueError("transition_weight needs a spherical polarization; "
                         "decompose linear_y into sigma+/sigma- first")
    return float(constants.EXCITATION_WEIGHTS[(m2, polarization.q)])


def decay_branching(excited_m: float):
    """Decay table of a 3P1(F'=3/2) sublevel.

    Returns a list of (ground_m, Polarization, fraction); the fractions are
    exact squared couplings renormalized to sum to 1, which for this level
    structure they already do.
    """
    m2 = _as_m2(excited_m, "excited_m")
    if m2 not in constants.DECAY_BRANCHES:
        raise ValueError(f"excited_m must be one of +/-1/2, +/-3/2, "
                         f"got {excited_m}")
    return [(g2 / 2.0, Polarization(q), float(frac))
            for (g2, q, frac) in constants.DECAY_BRANCHES[m2]]
