"""AC Stark shifts of the 3P1(F'=3/2) sublevels from the 1539-nm beam.

The pi-polarized infrared beam couples each 3P1(F'=3/2, m') sublevel to the
3D1 hyperfine components it can reach: m' = +/-3/2 talk only to F'' = 3/2,
m' = +/-1/2 to both F'' = 1/2 and 3/2.  In second-order perturbation theory
each coupled component k contributes Omega_k^2 / (4 Delta_k) to the level
shift, with Omega_k^2 proportional to the local beam intensity times the
squared coupling weight.  Because the F'' = 3/2 component lies *below*
F'' = 1/2, a beam red-detuned from F'' = 1/2 is blue of F'' = 3/2, which
pushes m' = +/-3/2 up and m' = +/-1/2 down: the two shifts have opposite
signs and their difference is the engineered sublevel splitting.

Geometry: beams propagate along the y axis (perpendicular to both the
cavity axis x and the fall axis z), so the transverse beam coordinate at a
point (x, y, z) is r^2 = (x - axis_offset)^2 + z^2.

Both beams have one fixed polarization, so neither carries it: the drive
(`BeamParams`) is polarized along y and the shift beam (`ShiftBeam`, a
BeamParams with a detuning) is pi-polarized.

Units: powers in W, lengths in m, `ShiftBeam.detuning` in rad/s (angular,
relative to the D1 F=1/2 component); returned shifts are plain
frequencies in Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .atomic import LevelScheme, rabi_sq
from .errors import ResonanceError, check, rule

TWO_PI = constants.TWO_PI
# Closest approach (in 3P1-3D1 linewidths) of the shift beam to a
# hyperfine component the sublevel couples to; the perturbative shift is
# meaningless nearer.
_RESONANCE_FLOOR = 10.0


@dataclass(frozen=True)
class BeamParams:
    """A Gaussian beam: power (W), 1/e^2 intensity waist (m) and
    transverse misalignment along x (m).  The drive is one: polarized
    along y, its frequency set by the run's excitation detuning."""

    power: float = rule(ge=0.0)
    waist: float = rule(gt=0.0)
    axis_offset: float = rule(0.0)

    def __post_init__(self):
        check(self)

    @property
    def peak_intensity(self) -> float:
        return 2.0 * self.power / (math.pi * self.waist ** 2)

    def profile(self, x, z):
        """Intensity over its peak at transverse coordinates (x, z), i.e.
        exp(-2 [(x - axis_offset)^2 + z^2] / w^2); broadcasts over arrays."""
        with np.errstate(over="ignore"):   # far off the axis: intensity 0
            r_sq = (np.asarray(x) - self.axis_offset) ** 2 + np.asarray(z) ** 2
            return np.exp(-2.0 * r_sq / self.waist ** 2)


@dataclass(frozen=True)
class ShiftBeam(BeamParams):
    """The pi-polarized 1539-nm beam: a Gaussian beam plus its detuning
    (rad/s) from the D1 F''=1/2 component.  `ShiftBeam()` is the
    reference beam (9 mW, 50 um, -300 MHz, on axis)."""

    power: float = rule(9e-3, ge=0.0)
    waist: float = rule(50e-6, gt=0.0)
    detuning: float = rule(-TWO_PI * 300e6)


@dataclass(frozen=True)
class ShiftResult:
    """Shifts (Hz) of the m'=+/-3/2 and m'=+/-1/2 sublevels and their
    difference."""

    delta_32: float
    delta_12: float

    @property
    def splitting(self):
        return self.delta_32 - self.delta_12


def _as_m2(m: float, name: str = "m") -> int:
    m2 = round(2.0 * m)
    if abs(2.0 * m - m2) > 1e-9:
        raise ValueError(f"{name} = {m} is not a half-integer")
    return int(m2)


def _component_detunings(detuning: float, scheme: LevelScheme):
    """Angular detunings from the F''=1/2 and F''=3/2 components (keyed
    2F''), given the detuning from F''=1/2."""
    return {
        1: detuning,
        3: detuning + TWO_PI * scheme.d1_hyperfine_splitting,
    }


def stark_shift(sublevel_m: float, beam: ShiftBeam, scheme: LevelScheme,
                position=(0.0, 0.0, 0.0)) -> float:
    """Shift (Hz) of a 3P1(F'=3/2) sublevel at `position`, an (x, y, z)
    triple whose entries may be arrays: the shift broadcasts over them,
    and scalars in give a float out.

    The unit-weight squared Rabi frequency is the drive's dipole formula,
    `atomic.rabi_sq`, at the 3P1-3D1 partial decay rate: in the weight
    normalization used here the squared matrix elements from any 3D1
    sublevel sum to one, so that dipole scale is exact.  The frozen
    `D1_SHIFT_CALIBRATION` factor absorbs the remaining convention spread
    in the published strength of this line.

    Raises ResonanceError when the beam sits within `_RESONANCE_FLOOR`
    linewidths of any hyperfine component the sublevel actually couples to.
    """
    m2 = _as_m2(sublevel_m, "sublevel_m")
    if abs(m2) not in (1, 3):
        raise ValueError(f"sublevel_m must be one of +/-1/2, +/-3/2, "
                         f"got {sublevel_m}")
    detunings = _component_detunings(beam.detuning, scheme)
    x, _, z = position
    omega_sq = rabi_sq(beam.peak_intensity * beam.profile(x, z),
                       scheme.gamma_D1_line, constants.WAVELENGTH_IR) \
        * constants.D1_SHIFT_CALIBRATION
    shift_rad = 0.0
    for f2, delta_k in detunings.items():
        weight = constants.D1_PI_WEIGHTS[(abs(m2), f2)]
        if weight == 0:
            continue
        if abs(delta_k) < _RESONANCE_FLOOR * scheme.gamma_D1_line:
            raise ResonanceError(
                f"shift beam within {_RESONANCE_FLOOR} linewidths of the "
                f"F''={f2}/2 component (detuning {delta_k:.3g} rad/s)")
        shift_rad += float(weight) * omega_sq / (4.0 * delta_k)
    shift = shift_rad / TWO_PI
    return float(shift) if np.ndim(shift) == 0 else shift


def sublevel_splitting(delta_32_measured: float, scheme: LevelScheme,
                       detuning: float = ShiftBeam.detuning
                       ) -> ShiftResult:
    """Infer the m'=+/-1/2 shift (and the splitting) from a known m'=+/-3/2
    shift, using the fixed ratio of summed weights over detunings.

    The ratio is evaluated at the given operating detuning (default: the
    reference -300 MHz point) and is independent of intensity, so a measured
    delta_32 pins everything else.  Input and outputs in Hz.
    """
    detunings = _component_detunings(detuning, scheme)
    w = constants.D1_PI_WEIGHTS
    resp_32 = float(w[(3, 3)]) / detunings[3]
    resp_12 = (float(w[(1, 1)]) / detunings[1]
               + float(w[(1, 3)]) / detunings[3])
    delta_12 = delta_32_measured * resp_12 / resp_32
    return ShiftResult(delta_32=delta_32_measured, delta_12=delta_12)

