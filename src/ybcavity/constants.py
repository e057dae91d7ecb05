"""Frozen numerical constants of the model.

Two kinds of numbers live here:

* Reference operating-point values (cavity rates, beam powers, geometry).
  These are the defaults every config starts from; all of them can be
  overridden through the dataclasses that consume them.

* Exact angular-momentum coupling tables for the I = 1/2 level structure,
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

from fractions import Fraction
import math

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# transition wavelengths
WAVELENGTH_GREEN = 556e-9       # 1S0 - 3P1 excitation line
WAVELENGTH_IR = 1539e-9         # 3P1 - 3D1 light-shift line

# ---------------------------------------------------------------------------
# atomic rates (angular)
GAMMA_P1 = TWO_PI * 0.091e6     # half the natural linewidth of 3P1 (rad/s)
GAMMA_D1_LINE = TWO_PI * 16e3   # 3P1-3D1 partial decay rate (rad/s, energy)
BRANCHING_D1_TO_P0 = 0.64       # fraction of 3D1 decays ending in 3P0

# 3D1 hyperfine interval F=1/2 <-> F=3/2 (Hz).  Not independently measured
# here; the default is fixed so the inferred m'=+/-1/2 shift reproduces the
# reference ratio -16/8.5 at the -300 MHz operating detuning (F=3/2 sits
# *below* F=1/2: inverted ordering, which is what makes delta_32 positive).
D1_HYPERFINE_SPLITTING_HZ = 300e6 * 339.0 / 34.0   # ~2991.18 MHz

# One-time calibration of the 1539-nm coupling strength: the squared Rabi
# frequency derived from GAMMA_D1_LINE is multiplied by this factor so the
# m'=+/-3/2 shift at the reference beam settings (9 mW, w=50 um, -300 MHz)
# equals the reference value of +6.8 MHz.  Frozen; do not retune.
D1_SHIFT_CALIBRATION = 2.863108624528967

# ---------------------------------------------------------------------------
# cavity and detection
G0 = TWO_PI * 2.8e6             # peak atom-cavity coupling (rad/s)
KAPPA = TWO_PI * 4.8e6          # cavity HWHM (rad/s)
MODE_WAIST = 19e-6              # TEM00 transverse waist (m)
DETECTION_EFFICIENCY = 0.20
DARK_RATE_SIGMA_PLUS_PER_MS = 1.0
DARK_RATE_SIGMA_MINUS_PER_MS = 0.5

# ---------------------------------------------------------------------------
# beams (reference operating point)
DRIVE_POWER = 1.8e-6            # W
DRIVE_WAIST = 25e-6             # m
SHIFT_POWER = 9e-3              # W
SHIFT_WAIST = 50e-6             # m
SHIFT_DETUNING = -TWO_PI * 300e6   # rad/s, relative to the D1 F=1/2 component

# ---------------------------------------------------------------------------
# transit geometry
DROP_HEIGHT = 7e-3              # m, fall distance from the cloud to the mode
ATOM_RATE = 550.0               # atoms/s crossing the sampling disc
MEASUREMENT_WINDOW = 2e-3       # s

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
