"""Frozen numerical constants of the model: physical constants,
wavelengths, the one calibration of the 1539-nm coupling, the pipeline's
resolution and the exact coupling tables.

The operating-point defaults (cavity rates, beam powers, geometry) are
not here: each is the default of the dataclass field that takes it, and
`ybcavity --print-defaults` shows them all.  The resolution,
`DISCRETIZATION`, is read when its readers are called, and the caches
key on the fields they read, so replacing it re-resolves the pipeline;
the time step is a config key (`TransitGeometry.time_step`).

The angular-momentum coupling tables for the I = 1/2 level structure are
stored as `Fraction`s so tests can compare them exactly.  They were
computed once by expanding the hyperfine states in the uncoupled
|J mJ>|I mI> basis (the dipole acts on J only); in the units used here the
squared matrix elements summed over final states equal 1 for every initial
sublevel, so the absolute dipole scale is 3*pi*eps0*hbar*c^3*Gamma/omega^3
with no residual multiplicity factor.

Unit conventions (used consistently across the package):
  * rates and detunings named "gamma", "kappa", "g0", "detuning" are
    angular (rad/s); `gamma` and `kappa` are HWHM-convention rates,
    so energy/population decay is 2*gamma and 2*kappa;
  * quantities documented as plain frequencies (shift results, hyperfine
    splitting, excitation detunings at the API surface) are in Hz;
  * lengths in metres, powers in watts, intensities in W/m^2.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# physical constants (SI, CODATA 2022 as in scipy.constants)
C_LIGHT = 299792458.0               # speed of light (m/s)
EPSILON_0 = 8.8541878188e-12        # vacuum permittivity (F/m)
PLANCK_H = 6.62607015e-34           # Planck constant (J s)
HBAR = PLANCK_H / (2 * math.pi)     # reduced Planck constant (J s)
FREE_FALL_G = 9.80665               # standard gravity (m/s^2)

# ---------------------------------------------------------------------------
# transition wavelengths
WAVELENGTH_GREEN = 556e-9       # 1S0 - 3P1 excitation line
WAVELENGTH_IR = 1539e-9         # 3P1 - 3D1 light-shift line

# One-time calibration of the 1539-nm coupling strength: the squared Rabi
# frequency derived from `LevelScheme.gamma_D1_line` is multiplied by this
# factor so the m'=+/-3/2 shift at the reference beam settings (9 mW,
# w=50 um, -300 MHz) equals the reference value of +6.8 MHz.  Frozen; do
# not retune.
D1_SHIFT_CALIBRATION = 2.863108624528967

# ---------------------------------------------------------------------------
# numerical resolution


@dataclass(frozen=True)
class Discretization:
    """How finely the pipeline resolves rates and ensemble averages."""

    table_nodes: tuple = (8, 12, 14)   # coupling, drive and shift-fraction
    table_refine: tuple = (4, 8, 4)    # fine-grid subdivisions between nodes
    # Gauss-Legendre nodes in the squared disc radius and uniform azimuthal
    # ones.  The mode envelope carries high angular harmonics on the disc
    # (exp(-8 sin^2 theta) at the rim), which 8 azimuthal nodes miss by
    # 5-10%; the 8 x 12 rule is within 0.1% of a converged polar reference
    # at the spectrum's peaks and within 1% on the shift-on flanks and with
    # the shift beam off axis, but off by up to 5% in the shift-on red tail
    # (below about -6 MHz), where a sublevel crosses resonance on the two
    # lines x0 = +/-x* of the disc.
    radial_nodes: int = 8
    azimuthal_nodes: int = 12
    phase_nodes: int = 6   # Gauss-Legendre nodes over the standing-wave phase
    # Photon cut-offs of the sigma+ and sigma- modes in the spin-up frame:
    # two photons in the mode of the spin's own cyclic transition, one in
    # the other.  Against the six-level model at n_max = 2 this changes the
    # rates by at most 1.4% at the operating point (the flip rate at an
    # antinode with the shift beam off; under 0.05% with it on).
    fock_cutoff: tuple = (2, 1)


DISCRETIZATION = Discretization()

# ---------------------------------------------------------------------------
# exact coupling tables (keys use twice-the-value integers: m2 = 2m, f2 = 2F)

# 1S0(F=1/2) -> 3P1(F=3/2) squared couplings, normalized so the cyclic
# (stretch) transition is 1.  Key: (m2_ground, q) with q = m'_excited - m.
EXCITATION_WEIGHTS = {
    (+1, +1): Fraction(1),        # |up>   -> m'=+3/2  (sigma+)
    (+1, 0): Fraction(2, 3),      # |up>   -> m'=+1/2  (pi)
    (+1, -1): Fraction(1, 3),     # |up>   -> m'=-1/2  (sigma-)
    (-1, -1): Fraction(1),        # |down> -> m'=-3/2  (sigma-)
    (-1, 0): Fraction(2, 3),      # |down> -> m'=-1/2  (pi)
    (-1, +1): Fraction(1, 3),     # |down> -> m'=+1/2  (sigma+)
}

# 3P1(F=3/2) decay branching.  Key: m2_excited; values: tuples of
# (m2_ground, q, fraction).  Fractions sum to exactly 1 per sublevel.
DECAY_BRANCHES = {
    +3: ((+1, +1, Fraction(1)),),
    +1: ((+1, 0, Fraction(2, 3)), (-1, +1, Fraction(1, 3))),
    -1: ((-1, 0, Fraction(2, 3)), (+1, -1, Fraction(1, 3))),
    -3: ((-1, -1, Fraction(1)),),
}

# pi couplings 3P1(F=3/2, m') -> 3D1(F'', m'), squared, in units of the
# J-reduced element (see module docstring).  Key: (|m2'|, f2'').
D1_PI_WEIGHTS = {
    (3, 3): Fraction(1, 2),
    (3, 1): Fraction(0),
    (1, 1): Fraction(1, 9),
    (1, 3): Fraction(1, 18),
}
