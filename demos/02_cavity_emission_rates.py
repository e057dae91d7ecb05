"""
Two-mode cavity emission: full master equation vs per-spin rates
================================================================

Each cyclic transition talks to its own circular cavity mode, so a
spin-up atom emits sigma+ photons and a spin-down atom sigma- photons.
The sampler needs rates for one spin at a time; `adiabatic_rates` takes
them from a reduced master equation of that spin with the cavity kept
explicit (at the operating drive the Rabi frequency is comparable to
kappa, so the field cannot be eliminated).  This script checks those rates
against the full two-mode Lindblad steady state at weak drive, then shows
what the rates look like at the actual (deeply saturating) operating
power.
"""

import numpy as np

from ybcavity import (BeamParams, CavityParams, LevelScheme, ShiftResult,
                      TransitConfig, stark_shift)
from ybcavity.dynamics import (adiabatic_rates, build_hamiltonian,
                               build_lindblad, ground_vacuum_state,
                               steady_state)
from ybcavity.transit import probe_detuning

scheme = LevelScheme()
cavity = CavityParams()
print("cavity: g0/2pi = %.1f MHz, kappa/2pi = %.1f MHz, gamma/2pi = %.3f MHz"
      % tuple(x / (2e6 * np.pi) for x in (cavity.g0, cavity.kappa,
                                          cavity.gamma)))
print("single-atom cooperativity C = g0^2/(kappa gamma) = %.1f"
      % (cavity.g0 ** 2 / (cavity.kappa * cavity.gamma)))

# ---------------------------------------------------------------------------
# Weak drive: the spin-averaged rates should agree with the flux
# 2*kappa*<n> of the full steady state, mode by mode.  (Note the flux
# *rises* off-center: the cavity back-action term g^2/kappa broadens the
# line most where the coupling is strongest, which suppresses resonant
# scattering there.  The full model reproduces the same trend.)
print("\nweak drive (5 nW), three positions across the mode:")
drive = BeamParams(power=5e-9, waist=25e-6)   # polarized along y
shifts = ShiftResult(delta_32=6.8e6, delta_12=-12.8e6)
det = 6.8e6  # probe parked on the shifted cyclic resonance

header = "  %-18s %12s %12s %8s"
print(header % ("position (um)", "flux 2k<n+>", "rate sigma+", "dev"))
for y_um in (0.0, 5.0, 9.0):
    pos = (0.0, y_um * 1e-6, 0.0)
    h = build_hamiltonian(scheme, cavity, drive, shifts, det, pos, n_max=2)
    state = steady_state(build_lindblad(h, scheme, cavity),
                         ground_vacuum_state(2, p_up=0.5))
    flux = 2.0 * cavity.kappa * state.photon_number(0)
    up = adiabatic_rates("up", det, pos, shifts, scheme, cavity, drive)
    dn = adiabatic_rates("down", det, pos, shifts, scheme, cavity, drive)
    rate = 0.5 * (up.rate_sigma_plus + dn.rate_sigma_plus)
    print("  (0, %4.1f, 0)       %10.0f/s %10.0f/s %7.2f%%"
          % (y_um, flux, rate, 100.0 * abs(flux - rate) / rate))

# ---------------------------------------------------------------------------
# Operating point: the real probe (1.8 uW) saturates the cyclic
# transition.  The rates below are what the transit sampler integrates
# for an atom at the mode center (an antinode of the standing wave): with
# the shift on, a spin-up atom pumps the sigma+ mode ~800x harder than
# sigma-, and flips are slow on the ~100 us transit timescale.
cfg = TransitConfig(light_shift_on=True)
d32, d12 = (stark_shift(m, cfg.shift_beam, scheme) for m in (+1.5, +0.5))
det = probe_detuning(cfg)
print("\noperating point: probe %.1f uW at %+.1f MHz, shift beam on"
      % (cfg.drive.power * 1e6, det / 1e6))
print("  %-10s %12s %12s %12s" % ("spin", "sigma+ /s", "sigma- /s", "flip /s"))
for spin in ("up", "down"):
    r = adiabatic_rates(spin, det, (0.0, 0.0, 0.0),
                        ShiftResult(delta_32=d32, delta_12=d12),
                        scheme, cavity, cfg.drive)
    print("  %-10s %12.3g %12.3g %12.3g"
          % (spin, r.rate_sigma_plus, r.rate_sigma_minus, r.spin_flip_rate))

# ---------------------------------------------------------------------------
# Turn the shift beam off and the selectivity is gone: all four excited
# sublevels sit at zero detuning, both spins scatter symmetrically, and
# the flip rate rises by orders of magnitude.
cfg_off = TransitConfig(light_shift_on=False)
print("\nshift beam off (probe at 0 MHz):")
print("  %-10s %12s %12s %12s" % ("spin", "sigma+ /s", "sigma- /s", "flip /s"))
for spin in ("up", "down"):
    r = adiabatic_rates(spin, 0.0, (0.0, 0.0, 0.0),
                        ShiftResult(delta_32=0.0, delta_12=0.0),
                        scheme, cavity, cfg_off.drive)
    print("  %-10s %12.3g %12.3g %12.3g"
          % (spin, r.rate_sigma_plus, r.rate_sigma_minus, r.spin_flip_rate))
