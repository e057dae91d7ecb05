"""Level structure of the I = 1/2 ytterbium isotope used throughout.

The model keeps three electronic terms: the 1S0 ground state (F = 1/2, the
nuclear-spin qubit), the 3P1 F' = 3/2 excited manifold reached by the 556-nm
light, and the 3D1 level (F'' = 1/2 and 3/2) that the 1539-nm beam couples to.
Magnetic quantum numbers are stored as twice-the-value integers (m2 = 2m) so
that all bookkeeping stays exact: the coupling tables in `constants` are
keyed that way, while `lightshift.stark_shift` takes an ordinary
half-integer float.

The two stretch transitions |m = +1/2> <-> |m' = +3/2> (sigma+) and
|m = -1/2> <-> |m' = -3/2> (sigma-) are cyclic: their excited states have a
single decay path back to the original ground sublevel.  Everything the rest
of the package does rests on that structure plus the 3:2:1 weight ratio of
the sigma-stretch : pi : sigma-cross couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants
from .constants import C_LIGHT, EPSILON_0, HBAR
from .errors import check, rule


def rabi_sq(intensity, decay_rate: float, wavelength: float):
    """Squared Rabi frequency (rad^2/s^2) of light of `intensity` (W/m^2)
    on a unit-weight dipole transition of angular decay rate `decay_rate`
    at `wavelength` (m): 2 I d^2 / (c eps0 hbar^2), with the dipole scale
    d^2 = 3 pi eps0 hbar c^3 Gamma / omega^3 fixed by the decay rate.
    Broadcasts over array intensities."""
    omega = constants.TWO_PI * C_LIGHT / wavelength
    d_sq = 3.0 * math.pi * EPSILON_0 * HBAR * C_LIGHT ** 3 \
        * decay_rate / omega ** 3
    return 2.0 * intensity * d_sq / (C_LIGHT * EPSILON_0 * HBAR ** 2)


@dataclass(frozen=True)
class LevelScheme:
    """Immutable container for the rates and intervals of the level model.

    gamma_D1_line is the full 3P1-3D1 partial decay rate, an angular rate
    (rad/s); the 3P1 linewidth is `CavityParams.gamma`.  The hyperfine
    splitting is a plain frequency in Hz.
    """

    gamma_D1_line: float = rule(constants.TWO_PI * 16e3, gt=0.0)
    # Not independently measured here; the default is fixed so the inferred
    # m'=+/-1/2 shift reproduces the reference ratio -16/8.5 at the -300 MHz
    # operating detuning (F=3/2 sits *below* F=1/2: inverted ordering, which
    # is what makes delta_32 positive).  ~2991.18 MHz.
    d1_hyperfine_splitting: float = rule(300e6 * 339.0 / 34.0, gt=0.0)

    __post_init__ = check   # no rule spans fields
