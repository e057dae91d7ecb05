"""Release acceptance suite.

Each test pins one guaranteed behavior of the simulator at its stated
tolerance: the calibrated level-engineering numbers, the trap-loss dip
width, agreement between the effective-rate model and the full two-mode
master equation, the deterministic SNR prediction, counting statistics of
10^4-sample ensembles, dark-count bookkeeping, and the structural
invariants (exact branching sums, physical density matrices, spectrum
asymmetry, byte-exact ensembles for any chunking of their runs).

The tolerances are contractual.  A failure here means the model misses
its target, and the right response is to fix the model or document the
discrepancy -- never to widen the bound.  Heavy ensembles are shared
through module-scoped fixtures; the full file runs in a few minutes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from ybcavity import constants, transit
from ybcavity.atomic import LevelScheme
from ybcavity.dynamics import (GROUND_INDEX, N_ATOM, CavityParams,
                               LindbladGenerator, adiabatic_rates,
                               build_hamiltonian, build_lindblad, evolve,
                               ground_vacuum_state, steady_state,
                               _reduction)
from ybcavity.lightshift import BeamParams, ShiftResult, stark_shift, \
    sublevel_splitting
from ybcavity.observables import (MotParams, count_weighted_skewness,
                                  dark_count_correct, dip_half_width,
                                  fluorescence_spectrum, mot_dip_profile,
                                  pearson_correlation, predicted_snr,
                                  snr_from_counts,
                                  _ensemble_expected_counts)
from ybcavity.transit import (TransitConfig, probe_detuning,
                              run_ensemble, run_transit_ensemble,
                              shift_fraction, write_count_records,
                              write_transit_records)

ENSEMBLE_SIZE = 10_000

# frozen master seeds; one per statistical ensemble so reruns are identical
SEED_ON_RANDOM = 101
SEED_ON_UP = 102
SEED_ON_DOWN = 103
SEED_OFF_UP = 104
SEED_OFF_DOWN = 105
SEED_OFF_AXIS_RANDOM = 106
SEED_ZERO_ATOM = 11
SEED_WORKERS = 17


def _counts_arrays(records):
    plus = np.array([r.counts_sigma_plus for r in records], dtype=float)
    minus = np.array([r.counts_sigma_minus for r in records], dtype=float)
    return plus, minus


# ---------------------------------------------------------------------------
# shared ensembles (module scope: each is built once for the whole file)


@pytest.fixture(scope="module")
def transits_on_random():
    cfg = TransitConfig(light_shift_on=True, initial_spin="random")
    return run_transit_ensemble(ENSEMBLE_SIZE, SEED_ON_RANDOM, cfg)


@pytest.fixture(scope="module")
def transits_on_up():
    cfg = TransitConfig(light_shift_on=True, initial_spin="up")
    return run_transit_ensemble(ENSEMBLE_SIZE, SEED_ON_UP, cfg)


@pytest.fixture(scope="module")
def transits_on_down():
    cfg = TransitConfig(light_shift_on=True, initial_spin="down")
    return run_transit_ensemble(ENSEMBLE_SIZE, SEED_ON_DOWN, cfg)


@pytest.fixture(scope="module")
def transits_off_up():
    cfg = TransitConfig(light_shift_on=False, initial_spin="up")
    return run_transit_ensemble(ENSEMBLE_SIZE, SEED_OFF_UP, cfg)


@pytest.fixture(scope="module")
def transits_off_down():
    cfg = TransitConfig(light_shift_on=False, initial_spin="down")
    return run_transit_ensemble(ENSEMBLE_SIZE, SEED_OFF_DOWN, cfg)


def _off_axis_config():
    # the shift beam 10 um off the drive axis: a 3-d rate table
    cfg = TransitConfig(light_shift_on=True, initial_spin="random")
    return replace(cfg, shift_beam=replace(cfg.shift_beam,
                                           axis_offset=10e-6))


@pytest.fixture(scope="module")
def transits_off_axis_random():
    return run_transit_ensemble(ENSEMBLE_SIZE, SEED_OFF_AXIS_RANDOM,
                                _off_axis_config())


@pytest.fixture(scope="module")
def snr_power_curve():
    cfg = TransitConfig()
    powers = [0.0, 0.5e-3, 1e-3, 2e-3, 4e-3, 6e-3, 9e-3]
    return predicted_snr(powers, cfg, vary="power")


# ---------------------------------------------------------------------------
# level engineering: calibrated shift and inferred splitting


def test_engineered_shift_at_reference_beam():
    """The pi-polarized 9 mW / 50 um / -300 MHz beam shifts the m'=+/-3/2
    sublevels by +6.8 MHz within 10% (one-time dipole calibration)."""
    cfg = TransitConfig()
    shift = stark_shift(+1.5, cfg.shift_beam, cfg.scheme)
    assert abs(shift - 6.8e6) <= 0.10 * 6.8e6, (
        f"engineered shift {shift / 1e6:.3f} MHz outside 6.8 MHz +/- 10%")


def test_splitting_inferred_from_measured_shift():
    """A measured +8.5 MHz stretch-sublevel shift implies a 24 +/- 2 MHz
    splitting between the m'=+/-3/2 and m'=+/-1/2 pairs."""
    result = sublevel_splitting(8.5e6, LevelScheme())
    assert abs(result.splitting - 24e6) <= 2e6, (
        f"inferred splitting {result.splitting / 1e6:.2f} MHz "
        f"outside 24 +/- 2 MHz")


# ---------------------------------------------------------------------------
# trap-loss spectroscopy dip


def test_trap_loss_dip_half_width():
    """At 3 mW/cm^2 probe intensity and a 0.5 1/s baseline loss rate the
    dip half-width falls in [70, 150] MHz."""
    hwhm = dip_half_width(MotParams())
    assert 70.0 <= hwhm <= 150.0, (
        f"trap-loss dip half width {hwhm:.1f} MHz outside [70, 150] MHz")


def test_trap_loss_flat_without_shelving():
    """Zero shelving probability gives an exactly flat unity profile."""
    grid = np.linspace(-400.0, 400.0, 161)
    profile = mot_dip_profile(grid, MotParams(p1_population=0.0))
    assert np.all(profile == 1.0), "profile deviates from 1 with eta = 0"


# ---------------------------------------------------------------------------
# effective rates vs the full two-mode master equation


def test_effective_rates_match_full_master_equation():
    """At 10 seeded weak-drive operating points the polarization-resolved
    cavity flux 2*kappa*<n> of the full steady state agrees with the
    spin-averaged closed-form rates within 5% per mode."""
    scheme = LevelScheme()
    cavity = CavityParams()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        pos = (0.0, rng.uniform(-9.5e-6, 9.5e-6), rng.uniform(-9.5e-6, 9.5e-6))
        drive = BeamParams(power=rng.uniform(1e-9, 8e-9), waist=25e-6)
        d32 = rng.uniform(0.0, 6.8e6)
        shifts = ShiftResult(delta_32=d32, delta_12=-(16.0 / 8.5) * d32)
        det = rng.uniform(-2e6, 8e6)
        h = build_hamiltonian(scheme, cavity, drive, shifts, det, pos, n_max=2)
        state = steady_state(build_lindblad(h, scheme, cavity),
                             ground_vacuum_state(2, p_up=0.5))
        n_tot = state.photon_number(0) + state.photon_number(1)
        assert n_tot < 0.05, f"drive not weak: <n> = {n_tot:.3f}"
        up = adiabatic_rates("up", det, pos, shifts, scheme, cavity, drive)
        dn = adiabatic_rates("down", det, pos, shifts, scheme, cavity, drive)
        pairs = [
            (2.0 * cavity.kappa * state.photon_number(0),
             0.5 * (up.rate_sigma_plus + dn.rate_sigma_plus)),
            (2.0 * cavity.kappa * state.photon_number(1),
             0.5 * (up.rate_sigma_minus + dn.rate_sigma_minus)),
        ]
        for flux, rate in pairs:
            if max(flux, rate) > 0.0:
                worst = max(worst, abs(flux - rate) / max(flux, rate))
    assert worst <= 0.05, (
        f"worst flux/rate relative deviation {worst:.4f} exceeds 5%")


def _conditional_generator(spin, det, pos, shifts, scheme, cavity, drive):
    """Full six-level model (n_max = 2) with every decay that would flip
    the spin sent back to it: the generator and the flipping operators."""
    n_max = 2
    h = build_hamiltonian(scheme, cavity, drive, shifts, det, pos, n_max)
    own = GROUND_INDEX[+1 if spin == "up" else -1]
    other = GROUND_INDEX[-1 if spin == "up" else +1]
    n_ph_sq = (n_max + 1) ** 2
    atom_of = np.arange(h.shape[0]) // n_ph_sq
    relabel = np.arange(N_ATOM)
    relabel[[own, other]] = [other, own]
    send_back = np.eye(h.shape[0])[relabel[atom_of] * n_ph_sq
                                   + np.arange(h.shape[0]) % n_ph_sq]
    collapse, flips = [], []
    for name, op in build_lindblad(h, scheme, cavity).collapse_ops:
        if name.startswith("decay") and np.any(op[atom_of == other]):
            flips.append(op)
            op = send_back @ op
        collapse.append((name, op))
    return LindbladGenerator(h, collapse, n_max), flips


def _conditional_full_rates(spin, det, pos, shifts, scheme, cavity, drive):
    """(2 kappa <n+>, 2 kappa <n->, flip rate) of the conditional model."""
    gen, flips = _conditional_generator(spin, det, pos, shifts, scheme,
                                        cavity, drive)
    state = steady_state(gen)
    flip = sum(np.trace(op.conj().T @ op @ state.rho).real for op in flips)
    return (2.0 * cavity.kappa * state.photon_number(0),
            2.0 * cavity.kappa * state.photon_number(1), flip)


def _local_shifts(pos, cfg):
    """The m' = 3/2 and 1/2 shifts at a point (zero with the shift off)."""
    frac = float(shift_fraction(pos[0], pos[2], cfg))
    return ShiftResult(
        delta_32=stark_shift(+1.5, cfg.shift_beam, cfg.scheme) * frac,
        delta_12=stark_shift(+0.5, cfg.shift_beam, cfg.scheme) * frac)


def _rate_model_gap(spin, det, pos, shifts, cfg):
    """Worst relative gap between the rate model's (sigma+, sigma-, flip)
    rates of one spin at one point and the conditional full model's, and
    the rate model's mean cavity rate (sigma+ + sigma-) / 2."""
    r = adiabatic_rates(spin, det, pos, shifts, cfg.scheme, cfg.cavity,
                        cfg.drive)
    ours = (r.rate_sigma_plus, r.rate_sigma_minus, r.spin_flip_rate)
    full = _conditional_full_rates(spin, det, pos, shifts, cfg.scheme,
                                   cfg.cavity, cfg.drive)
    return (max(abs(a / b - 1.0) for a, b in zip(ours, full)),
            0.5 * (ours[0] + ours[1]))


def test_rates_match_conditional_master_equation_at_operating_point():
    """At the reference drive, shift beam on and off, at five positions
    (mode center, off-axis along y, a half-intensity point of the
    standing wave, a half-intensity point of the drive, and a generic
    point), each spin's sigma+, sigma- and flip rates agree within 2%
    with the conditional steady state of the full model, and their spin
    average matches the unmodified full model's flux 2*kappa*<n>."""
    lam = constants.WAVELENGTH_GREEN
    half_drive = 25e-6 * math.sqrt(math.log(2.0) / 2.0)
    positions = [(0.0, 0.0, 0.0), (0.0, 10e-6, 0.0), (lam / 8, 0.0, 0.0),
                 (0.0, 0.0, half_drive), (12e-6 + lam / 3, 7e-6, -5e-6)]
    worst, worst_total = 0.0, 0.0
    for shift_on in (True, False):
        cfg = TransitConfig(light_shift_on=shift_on)
        det = probe_detuning(cfg)
        for pos in positions:
            shifts = _local_shifts(pos, cfg)
            total = 0.0
            for spin in ("up", "down"):
                gap, mean = _rate_model_gap(spin, det, pos, shifts, cfg)
                worst = max(worst, gap)
                total += mean
            h = build_hamiltonian(cfg.scheme, cfg.cavity, cfg.drive, shifts,
                                  det, pos, n_max=2)
            state = steady_state(build_lindblad(h, cfg.scheme, cfg.cavity),
                                 ground_vacuum_state(2, p_up=0.5))
            flux = 2.0 * cfg.cavity.kappa * (state.photon_number(0)
                                             + state.photon_number(1))
            worst_total = max(worst_total, abs(total / flux - 1.0))
    assert worst <= 0.02, (
        f"worst per-spin rate deviation {worst:.4f} exceeds 2%")
    assert worst_total <= 0.02, (
        f"worst spin-averaged flux deviation {worst_total:.4f} exceeds 2%")


@pytest.mark.parametrize("detuning", [-8e6, 0.0, 8e6])
def test_rates_match_conditional_master_equation_across_the_spectrum(
        detuning):
    """The rate tables span the whole spectrum, so the rate model must
    hold off the probe detuning too: at -8, 0 and +8 MHz, shift beam on
    and off, at the mode center and a generic point, the sigma+, sigma-
    and flip rates agree within 2% with the conditional steady state of
    the full model.  Spin up only: both models are mirror-symmetric, and
    the operating-point test checks spin down."""
    lam = constants.WAVELENGTH_GREEN
    positions = [(0.0, 0.0, 0.0), (12e-6 + lam / 3, 7e-6, -5e-6)]
    worst = 0.0
    for shift_on in (True, False):
        cfg = TransitConfig(light_shift_on=shift_on)
        for pos in positions:
            gap, _ = _rate_model_gap("up", detuning, pos,
                                     _local_shifts(pos, cfg), cfg)
            worst = max(worst, gap)
    assert worst <= 0.02, (
        f"worst per-spin rate deviation {worst:.4f} exceeds 2%")


def test_reduced_steady_state_of_the_conditional_generator():
    """The conditional generator is not mirror-symmetric, so the reduced
    steady-state solve keeps every entry of the population block; it
    still matches a plain solve of the full Liouvillian."""
    cfg = TransitConfig()
    shifts = ShiftResult(stark_shift(+1.5, cfg.shift_beam, cfg.scheme),
                         stark_shift(+0.5, cfg.shift_beam, cfg.scheme))
    gen, _ = _conditional_generator("up", probe_detuning(cfg), (0.0, 0.0, 0.0),
                                    shifts, cfg.scheme, cfg.cavity, cfg.drive)
    dim = gen.dim
    diag = np.arange(dim) * (dim + 1)
    rows, _ = _reduction(gen.liouvillian, gen.n_max, diag)
    assert len(rows) == dim * dim // 2
    a_mat = gen.liouvillian.tolil(copy=True)
    a_mat[0, :] = 0.0
    a_mat[0, diag] = 1.0
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    ref = spsolve(a_mat.tocsc(), b).reshape((dim, dim), order="F")
    ref = 0.5 * (ref + ref.conj().T)
    ref /= np.trace(ref).real
    assert np.max(np.abs(steady_state(gen).rho - ref)) <= 1e-10


# ---------------------------------------------------------------------------
# deterministic SNR prediction


def test_predicted_snr_at_reference_point(snr_power_curve):
    """predicted_snr at the reference operating point (9 mW shift beam)
    returns 8.7 within 15%."""
    snr = dict(snr_power_curve)[9e-3]
    assert abs(snr - 8.7) <= 0.15 * 8.7, (
        f"predicted SNR at 9 mW is {snr:.3f}, outside 8.7 +/- 15% "
        f"[{8.7 * 0.85:.2f}, {8.7 * 1.15:.2f}]")


def test_predicted_snr_nondecreasing_in_power(snr_power_curve):
    """SNR never drops as the light-shift power increases."""
    snrs = [s for _, s in snr_power_curve]
    diffs = np.diff(snrs)
    assert np.all(diffs >= 0.0), (
        f"SNR decreases along the power sweep: {snrs}")


def test_predicted_snr_narrow_beam_penalty():
    """At equal peak intensity a 20 um shift beam gives strictly lower SNR
    than the 50 um reference beam."""
    cfg = TransitConfig()
    curve = dict(predicted_snr([20e-6, 50e-6], cfg, vary="waist"))
    assert curve[20e-6] < curve[50e-6], (
        f"SNR at w = 20 um ({curve[20e-6]:.3f}) not below "
        f"w = 50 um ({curve[50e-6]:.3f})")


# ---------------------------------------------------------------------------
# counting statistics of 10^4-transit ensembles


def test_mean_detected_counts_per_atom(transits_on_random):
    """Shift on, random spins: the ensemble mean of detected counts per
    atom (both polarizations) lies in [3.5, 8.5]."""
    plus, minus = _counts_arrays(transits_on_random)
    mean_counts = float((plus + minus).mean())
    assert 3.5 <= mean_counts <= 8.5, (
        f"mean detected counts per atom {mean_counts:.2f} "
        f"outside [3.5, 8.5]")


def _sampler_against_quadrature(records, cfg):
    """(sampled mean, its standard error, the quadrature's value) of the
    detected counts per atom, both polarizations.  The quadrature's total
    is the same for either spin (the drive is mirror-symmetric), so an
    unpolarized atom stands for any mix of spins."""
    plus, minus = _counts_arrays(records)
    total = plus + minus
    expected = cfg.cavity.detection_efficiency \
        * sum(_ensemble_expected_counts(cfg, 0.5))
    return total.mean(), total.std(ddof=1) / math.sqrt(total.size), expected


def test_sampler_matches_quadrature_shift_off(transits_off_up,
                                              transits_off_down):
    """Shift off, both spins pooled: the sampled detected counts per atom
    lie within 3 standard errors of the quadrature's."""
    cfg = TransitConfig(light_shift_on=False)
    mean, se, expected = _sampler_against_quadrature(
        transits_off_up + transits_off_down, cfg)
    assert abs(mean - expected) <= 3.0 * se, (
        f"shift off: sampled {mean:.3f} +/- {se:.3f}, "
        f"quadrature {expected:.3f}")


def test_sampler_matches_quadrature_shift_on(transits_on_random):
    """Shift on, random spins: the sampled detected counts per atom lie
    within 3 standard errors of the quadrature's."""
    cfg = TransitConfig(light_shift_on=True)
    mean, se, expected = _sampler_against_quadrature(transits_on_random, cfg)
    assert abs(mean - expected) <= 3.0 * se, (
        f"shift on: sampled {mean:.3f} +/- {se:.3f}, "
        f"quadrature {expected:.3f}")


@pytest.mark.parametrize("shift_on", [True, False])
def test_sampler_matches_quadrature_spin_up(shift_on, transits_on_up,
                                            transits_off_up):
    """Spin up, shift on and off: the sampled detected counts per atom of
    each polarization lie within 3 standard errors of the quadrature's
    for a spin-up atom."""
    cfg = TransitConfig(light_shift_on=shift_on)
    records = transits_on_up if shift_on else transits_off_up
    expected = [cfg.cavity.detection_efficiency * e
                for e in _ensemble_expected_counts(cfg, 1.0)]
    for name, counts, want in zip(("sigma+", "sigma-"),
                                  _counts_arrays(records), expected):
        mean = counts.mean()
        se = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(mean - want) <= 3.0 * se, (
            f"spin up, shift {'on' if shift_on else 'off'}, {name}: "
            f"sampled {mean:.4f} +/- {se:.4f}, quadrature {want:.4f}")


def test_sampler_matches_quadrature_off_axis_beam(transits_off_axis_random):
    """Shift beam 10 um off the drive axis, random spins: the sampled
    detected counts per atom lie within 3 standard errors of the
    quadrature's."""
    mean, se, expected = _sampler_against_quadrature(
        transits_off_axis_random, _off_axis_config())
    assert abs(mean - expected) <= 3.0 * se, (
        f"off-axis beam: sampled {mean:.3f} +/- {se:.3f}, "
        f"quadrature {expected:.3f}")


def test_correlation_collapse_spin_up(transits_off_up, transits_on_up):
    """Spin-up ensembles: the sigma+/sigma- count correlation is positive
    without the shift and strictly smaller with it."""
    r_off = pearson_correlation(transits_off_up)
    r_on = pearson_correlation(transits_on_up)
    assert r_off > 0.0 and r_on < r_off, (
        f"spin up: r_off = {r_off:.3f}, r_on = {r_on:.3f} "
        f"(need r_off > 0 and r_on < r_off)")


def test_correlation_collapse_spin_down(transits_off_down, transits_on_down):
    """Same collapse for spin-down ensembles."""
    r_off = pearson_correlation(transits_off_down)
    r_on = pearson_correlation(transits_on_down)
    assert r_off > 0.0 and r_on < r_off, (
        f"spin down: r_off = {r_off:.3f}, r_on = {r_on:.3f} "
        f"(need r_off > 0 and r_on < r_off)")


def test_monte_carlo_snr_both_spins(transits_on_up, transits_on_down):
    """Shift on: the sampled SNR (desired over undesired totals) exceeds 2
    for both initial spins."""
    snr_up = snr_from_counts(transits_on_up, "up")
    snr_down = snr_from_counts(transits_on_down, "down")
    assert snr_up > 2.0 and snr_down > 2.0, (
        f"sampled SNRs up = {snr_up:.2f}, down = {snr_down:.2f} "
        f"(both must exceed 2)")


# ---------------------------------------------------------------------------
# dark-count bookkeeping


def test_zero_atom_window_dark_means():
    """10^4 atom-free 2 ms windows reproduce the detector dark means
    (2.0, 1.0) within three standard errors."""
    cfg = TransitConfig(light_shift_on=False, atom_rate=0.0)
    records = run_ensemble(ENSEMBLE_SIZE, SEED_ZERO_ATOM, cfg)
    assert all(r.atom_count == 0 for r in records)
    plus, minus = _counts_arrays(records)
    se_plus = plus.std(ddof=1) / math.sqrt(plus.size)
    se_minus = minus.std(ddof=1) / math.sqrt(minus.size)
    ok_plus = abs(plus.mean() - 2.0) <= 3.0 * se_plus
    ok_minus = abs(minus.mean() - 1.0) <= 3.0 * se_minus
    assert ok_plus and ok_minus, (
        f"dark means ({plus.mean():.4f}, {minus.mean():.4f}) deviate from "
        f"(2.0, 1.0) by more than 3 SE ({3 * se_plus:.4f}, {3 * se_minus:.4f})")


def test_dark_correction_zero_rates_identity():
    """Subtracting zero dark rates changes nothing."""
    corrected = dark_count_correct((17.0, 4.0), (0.0, 0.0), 2e-3)
    assert (corrected.counts_sigma_plus, corrected.counts_sigma_minus,
            corrected.clamped) == (17.0, 4.0, False), (
        f"zero-rate correction is not the identity: {corrected}")


# ---------------------------------------------------------------------------
# structural invariants


def test_branching_tables_sum_to_one_exactly():
    """Every excited sublevel's decay fractions sum to exactly 1.0."""
    for m2, branches in constants.DECAY_BRANCHES.items():
        total = sum(float(frac) for _, _, frac in branches)
        assert total == 1.0, (
            f"decay fractions of m' = {m2}/2 sum to {total!r}, not 1.0")


def test_random_evolutions_stay_physical():
    """100 randomized evolutions keep the density matrix Hermitian,
    trace-one, and positive within solver tolerance."""
    scheme = LevelScheme()
    cavity = CavityParams()
    rng = np.random.default_rng(7)
    for _ in range(100):
        pos = (0.0, rng.uniform(-2e-5, 2e-5), rng.uniform(-2e-5, 2e-5))
        drive = BeamParams(power=rng.uniform(0.0, 2e-6), waist=25e-6)
        shifts = ShiftResult(delta_32=rng.uniform(-1e6, 7e6),
                             delta_12=rng.uniform(-13e6, 1e6))
        h = build_hamiltonian(scheme, cavity, drive, shifts,
                              rng.uniform(-5e6, 8e6), pos, n_max=1)
        generator = build_lindblad(h, scheme, cavity)
        state = evolve(ground_vacuum_state(1, p_up=rng.uniform(0.0, 1.0)),
                       generator, rng.uniform(0.0, 2e-6))
        state.validate()  # raises NumericalError on any violation


def test_spectrum_symmetric_without_shift():
    """The shift-off excitation spectrum is symmetric: |skewness| < 0.1."""
    cfg = TransitConfig()
    grid = np.arange(-10.0, 10.0 + 1e-9, 0.25)
    skew = count_weighted_skewness(
        fluorescence_spectrum(grid, cfg, light_shift_on=False))
    assert abs(skew) < 0.1, f"shift-off spectrum skewness {skew:.4f}"


def test_spectrum_low_frequency_tail_narrow_beam():
    """A 20 um shift beam at the reference peak intensity skews the
    spectrum below -0.2 (tail toward lower frequency)."""
    cfg = TransitConfig()
    narrow = replace(cfg.shift_beam, waist=20e-6,
                     power=cfg.shift_beam.power * (20.0 / 50.0) ** 2)
    grid = np.arange(-10.0, 10.0 + 1e-9, 0.25)
    skew = count_weighted_skewness(
        fluorescence_spectrum(grid, replace(cfg, shift_beam=narrow),
                              light_shift_on=True))
    assert skew < -0.2, (
        f"narrow-beam spectrum skewness {skew:.4f} is not below -0.2")


def test_ensembles_byte_exact_across_chunk_sizes(tmp_path, monkeypatch):
    """Window and transit ensembles under a fixed seed serialize to
    byte-identical files whether their runs are stepped together in
    chunks of 1, 7 or all of them."""
    cfg = TransitConfig(light_shift_on=True, initial_spin="random")
    for name, runner, n_runs in (("windows", run_ensemble, 400),
                                 ("transits", run_transit_ensemble, 300)):
        writer = write_count_records if name == "windows" \
            else write_transit_records
        paths = []
        for chunk in (n_runs, 1, 7):
            monkeypatch.setattr(transit, "_CHUNK", chunk)
            path = tmp_path / f"{name}_{chunk}.csv"
            writer(path, runner(n_runs, SEED_WORKERS, cfg))
            paths.append(path)
        for path in paths[1:]:
            assert paths[0].read_bytes() == path.read_bytes(), (
                f"{name} ensemble differs between chunks of {n_runs} and "
                f"{path.stem.split('_')[1]}")
