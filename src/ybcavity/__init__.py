"""Desk-scale simulator of nuclear-spin-selective cavity fluorescence readout.

A single falling Yb-171 atom couples two cyclic optical transitions to the
two polarization modes of an optical microcavity; an auxiliary far-detuned
beam rearranges the excited-state sublevels so that the polarization of the
collected fluorescence reveals the nuclear spin.  This package models that
system end to end: exact coupling tables, AC Stark shift fields, the
two-mode Lindblad dynamics with its reduced per-spin rate model,
Monte Carlo transit/photon statistics, and the derived observables
(spectra, SNR curves, correlations, trap-loss spectroscopy).
"""

from .errors import (
    YbCavityError, ConfigError, ResonanceError, ModelError, NumericalError,
)
from .atomic import LevelScheme
from .lightshift import (
    BeamParams, ShiftBeam, ShiftResult, stark_shift, sublevel_splitting,
)
from .dynamics import (
    CavityParams, SystemState, LindbladGenerator, EmissionRates,
    build_hamiltonian, build_lindblad, ground_vacuum_state,
    steady_state, evolve, adiabatic_rates,
)
from .transit import (
    TransitGeometry, TransitConfig, TransitRecord, CountRecord,
    crossing_duration, probe_detuning,
    simulate_transit, simulate_window,
    run_ensemble, run_transit_ensemble,
    write_transit_records, write_count_records,
)
from .observables import (
    MotParams, SpectrumPoint, CorrectedCounts,
    mot_dip_profile, dip_half_width,
    fluorescence_spectrum,
    spectrum_peak, count_weighted_skewness,
    snr_from_counts, dark_count_correct, predicted_snr,
    pearson_correlation,
)
from .config import (
    RunConfig, config_from_dict, config_to_dict, load_config, dump_config,
)

__version__ = "0.1.0"
