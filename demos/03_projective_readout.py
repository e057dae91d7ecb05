"""
Projective spin readout, one falling atom at a time
===================================================

Atoms released from the trap fall through the cavity mode in ~100 us.
With the level engineering on, the polarization of the collected
fluorescence tells the spin: sigma+ means up, sigma- means down.  This
script samples full stochastic transits (random impact parameter,
spin-flip jumps in flight, Poisson detection) and then assembles the
2 ms measurement windows a real experiment would record, dark counts
and fluctuating atom number included.
"""

import math

import numpy as np
from scipy.constants import g

from ybcavity import (TransitConfig, crossing_duration, pearson_correlation,
                      run_ensemble, run_transit_ensemble, snr_from_counts)

N_TRANSITS = 2000
N_WINDOWS = 1500
SEED = 20260825

cfg = TransitConfig(light_shift_on=True)
fall_speed = math.sqrt(2.0 * g * cfg.geometry.drop_height)
print("fall time through the mode: %.0f us (2w/v estimate %.0f us)"
      % (crossing_duration(cfg.geometry) * 1e6,
         2.0 * cfg.geometry.mode_waist / fall_speed * 1e6))

# ---------------------------------------------------------------------------
# Single-atom transits with a known initial spin.  The detected-count
# split between the two polarization channels is the readout signal.
for spin in ("up", "down"):
    recs = run_transit_ensemble(
        N_TRANSITS, SEED, TransitConfig(initial_spin=spin))
    plus = np.array([r.counts_sigma_plus for r in recs])
    minus = np.array([r.counts_sigma_minus for r in recs])
    flips = np.mean([r.final_spin != r.initial_spin for r in recs])
    print("\nspin %s, shift on, %d transits:" % (spin, N_TRANSITS))
    print("  mean detected counts: sigma+ %.2f, sigma- %.2f"
          % (plus.mean(), minus.mean()))
    print("  sampled SNR %.1f, flip fraction %.3f"
          % (snr_from_counts(recs, spin), flips))

# ---------------------------------------------------------------------------
# The same ensemble without the shift beam: both channels fire equally
# and the spin is randomized in flight -- no readout.
recs_off = run_transit_ensemble(
    N_TRANSITS, SEED, TransitConfig(light_shift_on=False,
                                    initial_spin="up"))
plus = np.array([r.counts_sigma_plus for r in recs_off])
minus = np.array([r.counts_sigma_minus for r in recs_off])
flips = np.mean([r.final_spin != r.initial_spin for r in recs_off])
print("\nspin up, shift OFF: sigma+ %.1f, sigma- %.1f per atom, "
      "flip fraction %.2f" % (plus.mean(), minus.mean(), flips))

# ---------------------------------------------------------------------------
# Measurement windows: 2 ms exposures with a Poisson number of atoms
# (mean ~1.1) plus detector dark counts.  Without the shift the two
# channels rise and fall together window to window (every atom feeds
# both), so their counts correlate; with the shift each atom feeds only
# one channel and the correlation collapses.
print("\n%d windows of %.0f ms, atom rate %.0f /s:"
      % (N_WINDOWS, cfg.window * 1e3, cfg.atom_rate))
for label, on in (("shift off", False), ("shift on ", True)):
    wrecs = run_ensemble(N_WINDOWS, SEED + 1,
                         TransitConfig(light_shift_on=on))
    r = pearson_correlation(wrecs)
    n_atoms = np.mean([w.atom_count for w in wrecs])
    print("  %s: sigma+/sigma- Pearson r = %+5.2f   (mean atoms %.2f)"
          % (label, r, n_atoms))
