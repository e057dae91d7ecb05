"""Derived quantities: spectra, SNR curves, correlations, dark-count
bookkeeping, and the trap-loss dip used to locate the 1539-nm line.

The deterministic ensemble averages here use the same fall lines and
rate lookup as the Monte Carlo sampler (uniform impact disc, `time_step`
grid) but replace sampling with quadrature: Gauss-Legendre in the squared
radial coordinate (the same u = (r/R)^2 variable the sampler inverts,
`_RADIAL_NODES` points) and a uniform azimuthal rule (`_AZIMUTHAL_NODES`),
which together integrate the uniform-disc measure exactly in the
smooth-integrand limit.  The rule is summed over its distinct fall lines
only: y0 enters the rates only through the mode envelope's y0^2, and x0
only through the beams' (x0 - axis_offset)^2, i.e. through x0^2 when the
drive and the shift beam (if on) sit on x = 0.  The azimuthal nodes are
closed under these mirrors, so one line of each mirror set at the set's
summed weight is the same rule, equal to rounding: 144 of the rule's 576
fall lines (8 x 12 disc nodes x 6 phases) per point with centred beams,
288 otherwise.  The mode envelope carries high angular harmonics on the
disc (exp(-8 sin^2 theta) at the rim), which 8 azimuthal nodes miss by
5-10%; the 8 x 12 rule is within 0.1% of a converged polar reference at
the spectrum's peaks and within 1% on the shift-on flanks and with the
shift beam off axis, but off by up to 5% in the shift-on red tail (below
about -6 MHz), where a sublevel's resonance is a thin ring on the disc.
The cavity standing wave varies on a sub-micron scale along x, far
faster than anything else, so at each disc node the coupling is
averaged over the standing-wave phase with its own Gauss-Legendre rule
(`_PHASE_NODES` points on a quarter period, which by symmetry covers the
whole period).  Along each fall line the two-state spin occupation obeys
    dP_up/dt = -f_up P_up + f_dn P_dn,
which for the y-polarized drive is symmetric (f_up = f_dn = f), so the
polarization imbalance decays as exp(-2 int f dt) and every segment
integral has a closed form -- no ODE stepping error on top of the shared
piecewise-constant rate grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import c, h

from . import constants
from .dynamics import axial_profile
from .errors import ConfigError, check, rule
from .transit import TransitConfig, transit_rate_table, write_records

SPECTRUM_FORMAT_TAG = "ybcavity.spectrum.v1"
SNR_FORMAT_TAG = "ybcavity.snr.v1"
DIP_FORMAT_TAG = "ybcavity.dip.v1"


# ---------------------------------------------------------------------------
# simple record types


@dataclass(frozen=True)
class SpectrumPoint:
    """One spectrum sample: probe detuning (MHz) and the per-atom mean
    detected counts (both polarizations, ensemble-averaged)."""

    excitation_detuning: float
    mean_counts: float

    def __post_init__(self):
        if self.mean_counts < 0:
            raise ValueError("mean_counts must be >= 0")


@dataclass(frozen=True)
class MotParams:
    """Rate-equation parameters of the trap-loss spectroscopy.

    Steady-state atom number N = R / (Gamma0 + eta * Gamma1(detuning)),
    with Gamma1 the saturated scattering rate on the 16-kHz line and
    eta = p1_population * branching the probability that one scattering
    event removes the atom (shelved outside the cooling cycle).  The
    loading rate R cancels from the normalized profile N/N(far detuned)
    = Gamma0 / (Gamma0 + eta * Gamma1), so it is no parameter.
    """

    Gamma0: float = rule(0.5, ge=0.0)
    probe_power_density: float = rule(30.0, ge=0.0)
    natural_linewidth_D1: float = rule(16e3, gt=0.0)
    branching: float = rule(constants.BRANCHING_D1_TO_P0, ge=0.0, le=1.0)
    p1_population: float = rule(0.46, ge=0.0, le=1.0)

    __post_init__ = check   # no rule spans fields

    @property
    def eta(self) -> float:
        return self.p1_population * self.branching

    @property
    def saturation_intensity(self) -> float:
        """I_sat (W/m^2) of the 1539-nm line."""
        gamma_ang = constants.TWO_PI * self.natural_linewidth_D1
        return math.pi * h * c * gamma_ang \
            / (3.0 * constants.WAVELENGTH_IR ** 3)


# ---------------------------------------------------------------------------
# trap-loss dip


def _scattering_rate(detuning_mhz, mot: MotParams):
    gamma_ang = constants.TWO_PI * mot.natural_linewidth_D1
    s0 = mot.probe_power_density / mot.saturation_intensity
    delta_ang = constants.TWO_PI * np.asarray(detuning_mhz, dtype=float) * 1e6
    return (0.5 * gamma_ang * s0
            / (1.0 + s0 + (2.0 * delta_ang / gamma_ang) ** 2))


def mot_dip_profile(detuning_grid, mot: MotParams):
    """Normalized steady-state atom number N(detuning)/N(far detuned) on a
    MHz grid.  eta = 0 gives exactly 1 everywhere."""
    grid = np.asarray(detuning_grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ConfigError("detuning grid must be finite")
    if mot.eta == 0.0:
        return np.ones_like(grid)
    return mot.Gamma0 / (mot.Gamma0 + mot.eta * _scattering_rate(grid, mot))


def dip_half_width(mot: MotParams) -> float:
    """Detuning (MHz) where the trap loss reaches half depth, i.e. where
    eta * Gamma1 = Gamma0; NaN when the dip never gets that deep."""
    gamma_ang = constants.TWO_PI * mot.natural_linewidth_D1
    s0 = mot.probe_power_density / mot.saturation_intensity
    if mot.eta == 0.0 or mot.Gamma0 == 0.0:
        return float("nan")
    arg = mot.eta * 0.5 * gamma_ang * s0 / mot.Gamma0 - (1.0 + s0)
    if arg <= 0.0:
        return float("nan")
    return 0.5 * gamma_ang * math.sqrt(arg) / (constants.TWO_PI * 1e6)


# ---------------------------------------------------------------------------
# deterministic transit ensemble


_RADIAL_NODES = 8      # Gauss-Legendre nodes in the squared radius
_AZIMUTHAL_NODES = 12  # uniform azimuthal nodes
_PHASE_NODES = 6       # Gauss-Legendre nodes over the standing-wave phase


def _disc_quadrature(config: TransitConfig):
    """Node arrays x0, y0 and weights averaging over the uniform impact
    disc, radius-major, one node per distinct fall line: azimuthal nodes
    that a mirror maps onto each other (y0 -> -y0 always, x0 -> -x0 with
    centred beams) are one node with their summed weight."""
    u, w_u = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    # u mapped to (0, 1): du uniform
    r = config.geometry.impact_radius * np.sqrt(0.5 * (u + 1.0))
    # node k sits at angle j pi / n, j = 2k + 1; each node's mirror images
    # are nodes too, and the least j of its orbit stands for them all
    n = _AZIMUTHAL_NODES
    j = 2 * np.arange(n) + 1
    orbit = [j, 2 * n - j]                        # y0 -> -y0
    centred = config.drive.axis_offset == 0.0 and (
        not config.shift_on or config.shift_beam.axis_offset == 0.0)
    if centred and n % 2 == 0:
        orbit += [(n - j) % (2 * n), (n + j) % (2 * n)]   # x0 -> -x0
    j, images = np.unique(np.min(orbit, axis=0), return_counts=True)
    theta = j * (math.pi / n)
    return (np.outer(r, np.cos(theta)).ravel(),
            np.outer(r, np.sin(theta)).ravel(),
            np.outer(0.5 * w_u, images / n).ravel())


def _expected_counts(x0, y0, axial, config: TransitConfig,
                     p_up_initial: float):
    """Expected cavity emissions (sigma+, sigma-) for a batch of fall
    lines (1-d arrays x0, y0 and standing-wave factors), before detection
    thinning, with the spin occupation evolved through the flip rate:
    exact per-segment integrals for the symmetric flip problem."""
    dt = config.geometry.time_step
    # one row per line; the two spins share one flip rate f, and spin
    # down has sigma+ and sigma- swapped (mirror-symmetric drive)
    up_plus, up_minus, flip = (np.ascontiguousarray(r.T) for r in
                               transit_rate_table(x0, y0, config, axial=axial))
    dn_plus, dn_minus = up_minus, up_plus

    x = 2.0 * flip * dt
    amp = (p_up_initial - 0.5) * np.exp(x - np.cumsum(x, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        seg_mean = np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
    mean_p_up = 0.5 + amp * seg_mean
    mean_p_dn = 1.0 - mean_p_up
    exp_plus = dt * np.sum(mean_p_up * up_plus + mean_p_dn * dn_plus, axis=1)
    exp_minus = dt * np.sum(mean_p_up * up_minus + mean_p_dn * dn_minus,
                            axis=1)
    return exp_plus, exp_minus


def _ensemble_expected_counts(config: TransitConfig, p_up_initial: float):
    x0, y0, w = _disc_quadrature(config)
    u, w_u = np.polynomial.legendre.leggauss(_PHASE_NODES)
    axial = axial_profile(0.25 * math.pi * (u + 1.0))
    weights = np.outer(w, 0.5 * w_u).ravel()
    ep, em = _expected_counts(np.repeat(x0, _PHASE_NODES),
                              np.repeat(y0, _PHASE_NODES),
                              np.tile(axial, len(w)), config, p_up_initial)
    return float(weights @ ep), float(weights @ em)


# ---------------------------------------------------------------------------
# spectra


def fluorescence_spectrum(detuning_grid, config: TransitConfig,
                          light_shift_on: bool):
    """Per-atom mean detected counts vs probe detuning (MHz grid), for an
    unpolarized atom ensemble.  Without the shift beam the rates are even
    in the detuning, so each |detuning| is computed once."""
    grid = np.asarray(detuning_grid, dtype=float)
    if grid.size and np.any(np.diff(grid) < 0):
        raise ConfigError("detuning grid must be sorted ascending")
    base = replace(config, light_shift_on=light_shift_on)
    fold = float if base.shift_on else abs
    eta = config.cavity.detection_efficiency
    counts = {}
    for det in map(fold, grid):
        if det not in counts:
            cfg = replace(base, excitation_detuning=float(det) * 1e6)
            ep, em = _ensemble_expected_counts(cfg, 0.5)
            counts[det] = eta * (ep + em)
    return [SpectrumPoint(excitation_detuning=float(det),
                          mean_counts=counts[fold(det)]) for det in grid]


def spectrum_peak(points) -> float:
    """Detuning (MHz) of the largest mean count."""
    if not points:
        raise ConfigError("empty spectrum")
    best = max(points, key=lambda p: p.mean_counts)
    return best.excitation_detuning


def count_weighted_skewness(points) -> float:
    """Third standardized moment of the detuning distribution weighted by
    mean counts; NaN for a flat or empty spectrum."""
    if not points:
        return float("nan")
    det = np.array([p.excitation_detuning for p in points])
    wts = np.array([p.mean_counts for p in points])
    total = wts.sum()
    if total <= 0.0:
        return float("nan")
    mu = np.sum(wts * det) / total
    var = np.sum(wts * (det - mu) ** 2) / total
    if var <= 0.0:
        return float("nan")
    return float(np.sum(wts * (det - mu) ** 3) / total / var ** 1.5)


# ---------------------------------------------------------------------------
# SNR


def snr_from_counts(records, initial_spin: str) -> float:
    """Total desired-polarization counts over total undesired counts
    (sigma+/sigma- for spin up, swapped for down).  Returns math.inf when
    the undesired channel recorded nothing."""
    records = list(records)
    if not records:
        raise ConfigError("records must be nonempty")
    if initial_spin not in ("up", "down"):
        raise ConfigError(f"initial_spin must be 'up' or 'down', "
                          f"got {initial_spin!r}")
    plus = sum(r.counts_sigma_plus for r in records)
    minus = sum(r.counts_sigma_minus for r in records)
    desired, undesired = (plus, minus) if initial_spin == "up" \
        else (minus, plus)
    if undesired == 0:
        return math.inf
    return desired / undesired


@dataclass(frozen=True)
class CorrectedCounts:
    """Dark-count-subtracted counts; clamped marks any channel that went
    negative and was floored at zero."""

    counts_sigma_plus: float
    counts_sigma_minus: float
    clamped: bool


def dark_count_correct(counts_pair, dark_rates_per_ms,
                       total_exposure: float) -> CorrectedCounts:
    """Subtract the expected dark counts (per-ms rates x exposure in
    seconds) from a (sigma+, sigma-) pair."""
    if not total_exposure > 0:
        raise ConfigError(f"total_exposure must be > 0, "
                          f"got {total_exposure}")
    expected = [r * 1e3 * total_exposure for r in dark_rates_per_ms]
    raw = [counts_pair[0] - expected[0], counts_pair[1] - expected[1]]
    clamped = any(v < 0.0 for v in raw)
    return CorrectedCounts(counts_sigma_plus=max(0.0, raw[0]),
                           counts_sigma_minus=max(0.0, raw[1]),
                           clamped=clamped)


def predicted_snr(values, config: TransitConfig, vary: str = "power"):
    """Deterministic (rate-based, dark-count-free) SNR for a known
    initial spin, swept over light-shift beam power (W) or waist (m).

    The waist sweep holds the peak intensity at the reference beam's
    value, so power scales as (waist/reference waist)^2.  The probe is
    retuned to the engineered resonance at every grid point, as in the
    measurement.  Detection efficiency cancels exactly in the ratio.
    The drive's mirror symmetry makes the result spin-independent.  A
    swept value the beam's rules reject is a ConfigError.
    """
    if vary not in ("power", "waist"):
        raise ConfigError(f"vary must be 'power' or 'waist', got {vary!r}")
    reference = config.shift_beam
    curve = []
    for v in values:
        if vary == "power":
            beam = replace(reference, power=float(v))
        else:
            scale = (float(v) / reference.waist) ** 2
            beam = replace(reference, waist=float(v),
                           power=reference.power * scale)
        cfg = replace(config, shift_beam=beam, light_shift_on=True,
                      excitation_detuning=None)
        desired, undesired = _ensemble_expected_counts(cfg, 1.0)
        curve.append((float(v),
                      math.inf if undesired == 0.0 else desired / undesired))
    return curve


# ---------------------------------------------------------------------------
# correlation


def pearson_correlation(records) -> float:
    """Pearson r between the sigma+ and sigma- counts of a record set;
    NaN when either channel has zero variance."""
    records = list(records)
    if len(records) < 2:
        raise ConfigError("need at least two records for a correlation")
    plus = np.array([r.counts_sigma_plus for r in records], dtype=float)
    minus = np.array([r.counts_sigma_minus for r in records], dtype=float)
    dp = plus - plus.mean()
    dm = minus - minus.mean()
    var_p = np.sum(dp ** 2)
    var_m = np.sum(dm ** 2)
    if var_p == 0.0 or var_m == 0.0:
        return float("nan")
    return float(np.sum(dp * dm) / math.sqrt(var_p * var_m))


# ---------------------------------------------------------------------------
# emitters


def write_spectrum_csv(path, points):
    write_records(path, SPECTRUM_FORMAT_TAG, ("detuning_MHz", "mean_counts"),
                  ((float(p.excitation_detuning), float(p.mean_counts))
                   for p in points))


def write_snr_csv(path, curve, x_label: str):
    if x_label not in ("power_mW", "waist_um"):
        raise ConfigError(f"unknown snr sweep label {x_label!r}")
    write_records(path, SNR_FORMAT_TAG, (x_label, "snr"),
                  ((float(x), float(s)) for x, s in curve))


def write_dip_csv(path, detuning_grid, values):
    write_records(path, DIP_FORMAT_TAG, ("detuning_MHz", "normalized_N"),
                  ((float(d), float(v))
                   for d, v in zip(detuning_grid, values)))


def _json_value(value):
    """A summary value as strict JSON: an undefined (NaN) number becomes
    null, and +/-inf the strings "inf" and "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def write_stats_json(path, stats: dict):
    with open(path, "w") as fh:
        json.dump({k: _json_value(v) for k, v in stats.items()}, fh,
                  indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
