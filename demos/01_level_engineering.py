"""
Rearranging the excited sublevels with a far-detuned infrared beam
==================================================================

The readout scheme needs the two cyclic transitions (|up> -> m'=+3/2,
|down> -> m'=-3/2) spectrally separated from the spin-flipping ones
(to m'=+/-1/2).  A pi-polarized infrared beam, red-detuned a few hundred
MHz from the 3P1 - 3D1 (F''=1/2) line, does exactly that: it pushes the
|m'|=3/2 pair up and the |m'|=1/2 pair down, without touching the ground
states.  This script walks through the numbers.
"""

import numpy as np

from ybcavity import (LevelScheme, ShiftBeam, stark_shift,
                      sublevel_splitting)

scheme = LevelScheme()

# ---------------------------------------------------------------------------
# The reference beam: 9 mW focused to a 50 um waist, -300 MHz detuned.
beam = ShiftBeam()
print("reference beam: %.1f mW, w = %.0f um, detuning %+.0f MHz"
      % (beam.power * 1e3, beam.waist * 1e6, beam.detuning / (2e6 * np.pi)))

for m in (+1.5, +0.5):
    print("  shift of m' = +/-%.1f : %+7.2f MHz"
          % (m, stark_shift(m, beam, scheme) / 1e6))

d32 = stark_shift(+1.5, beam, scheme)
d12 = stark_shift(+0.5, beam, scheme)
print("  engineered splitting   : %7.2f MHz" % ((d32 - d12) / 1e6))

# ---------------------------------------------------------------------------
# The splitting scales linearly with power, so a measured stretch-state
# shift pins everything else.  A +8.5 MHz measurement implies:
inferred = sublevel_splitting(8.5e6, scheme)
print("\nfrom a measured +8.5 MHz stretch shift:")
print("  m'=+/-1/2 shift %.1f MHz, splitting %.1f MHz"
      % (inferred.delta_12 / 1e6, inferred.splitting / 1e6))

# ---------------------------------------------------------------------------
# Why the two pairs move apart: m'=+/-3/2 couples only to the far
# F''=3/2 hyperfine component (~3 GHz away), while m'=+/-1/2 couples
# mostly to the near F''=1/2 one.  Flip the beam to the blue side and the
# m'=1/2 shift changes sign while the m'=3/2 shift barely moves -- the
# engineered splitting collapses.
blue = ShiftBeam(power=beam.power, waist=beam.waist, detuning=-beam.detuning)
print("\nsame beam blue-detuned by +300 MHz:")
for m in (+1.5, +0.5):
    print("  shift of m' = +/-%.1f : %+7.2f MHz"
          % (m, stark_shift(m, blue, scheme) / 1e6))

# ---------------------------------------------------------------------------
# The shift follows the local intensity.  Evaluating it along a
# transverse cut through the focus (stark_shift takes arrays of
# positions) shows the Gaussian envelope an atom falling off-center
# actually experiences.
offsets = np.array([0.0, 10e-6, 25e-6, 50e-6, 75e-6])
cut = stark_shift(+1.5, beam, scheme, position=(offsets, 0.0, 0.0))
print("\ntransverse profile of the m'=3/2 shift:")
for x, shift in zip(offsets, cut):
    bar = "#" * int(round(40 * shift / d32))
    print("  x = %3.0f um : %5.2f MHz %s" % (x * 1e6, shift / 1e6, bar))
