"""
Excitation spectra and the predicted readout SNR
================================================

Two deterministic observables summarize the scheme's quality.  The
cavity-collected excitation spectrum shows where the cyclic resonance
sits once the shift beam is on -- and how the Gaussian intensity profile
smears it toward lower shifts for atoms that cross the beam off-center.
The predicted SNR (desired-polarization counts over undesired, for a
known spin) quantifies how much the engineered splitting suppresses
depolarizing scatter.  Both are quadrature averages over the impact
disc, no sampling noise involved.
"""

from dataclasses import replace

import numpy as np

from ybcavity import (TransitConfig, count_weighted_skewness,
                      fluorescence_spectrum, predicted_snr, spectrum_peak)

cfg = TransitConfig()
grid = np.arange(-10.0, 10.0 + 1e-9, 0.5)


def sketch(points, width=46):
    top = max(p.mean_counts for p in points)
    for p in points[::2]:
        bar = "#" * int(round(width * p.mean_counts / top))
        print("  %+5.1f MHz %s" % (p.excitation_detuning, bar))


# ---------------------------------------------------------------------------
# Spectrum without the shift beam: a symmetric line at zero detuning.
off = fluorescence_spectrum(grid, cfg, light_shift_on=False)
print("shift off: peak %+0.2f MHz, skewness %+0.3f"
      % (spectrum_peak(off), count_weighted_skewness(off)))

# With the 50 um beam on, the line moves up toward the engineered
# +6.8 MHz, but atoms crossing the beam's wings see only part of the
# shift: the peak lands a little low and drags a low-frequency tail.
on = fluorescence_spectrum(grid, cfg, light_shift_on=True)
print("shift on:  peak %+0.2f MHz, skewness %+0.3f"
      % (spectrum_peak(on), count_weighted_skewness(on)))
sketch(on)

# Shrink the beam to 20 um at the same peak intensity and the shoulder
# grows into a long tail -- most of the impact disc now lies outside the
# beam's flat center.
narrow = replace(cfg, shift_beam=replace(
    cfg.shift_beam, waist=20e-6,
    power=cfg.shift_beam.power * (20.0 / 50.0) ** 2))
on20 = fluorescence_spectrum(grid, narrow, light_shift_on=True)
print("20 um beam, same peak intensity: peak %+0.2f MHz, skewness %+0.3f"
      % (spectrum_peak(on20), count_weighted_skewness(on20)))

# ---------------------------------------------------------------------------
# Predicted SNR vs shift-beam power: more power, more splitting, fewer
# wrong-polarization photons.  Without the beam the two channels are
# symmetric and the SNR pins to 1.
print("\npredicted SNR vs shift-beam power (50 um beam):")
powers = [0.0, 1e-3, 2e-3, 4e-3, 6e-3, 9e-3]
for p, snr in predicted_snr(powers, cfg, vary="power"):
    print("  %4.1f mW : %6.2f %s" % (p * 1e3, snr, "#" * int(round(snr))))

# ...and vs beam waist at fixed peak intensity: a narrow beam leaves the
# outer impact parameters unshifted, which costs SNR even though the
# center atom sees the same +6.8 MHz.
print("\npredicted SNR vs shift-beam waist (same peak intensity):")
for w, snr in predicted_snr([20e-6, 30e-6, 40e-6, 50e-6], cfg, vary="waist"):
    print("  %3.0f um : %6.2f %s" % (w * 1e6, snr, "#" * int(round(snr))))
