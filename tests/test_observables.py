"""Observables tests: trap-loss dip, fluorescence spectra, SNR measures,
Pearson correlation, dark-count correction, and the CSV/JSON emitters."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ybcavity import constants, observables, transit
from ybcavity.dynamics import axial_profile
from ybcavity.errors import ConfigError
from ybcavity.lightshift import stark_shift
from ybcavity.observables import (
    CorrectedCounts, MotParams, SpectrumPoint, count_weighted_skewness,
    dark_count_correct, dip_half_width, fluorescence_spectrum,
    mot_dip_profile, pearson_correlation, predicted_snr, snr_from_counts,
    spectrum_peak, write_dip_csv, write_snr_csv, write_spectrum_csv,
    write_stats_json,
)
from ybcavity.observables import _disc_quadrature, _expected_counts
from ybcavity.transit import (TransitConfig, TransitGeometry, TransitRecord,
                              run_ensemble)

CFG = TransitConfig(light_shift_on=True)
CFG_1US = replace(CFG, geometry=replace(CFG.geometry, time_step=1e-6))


@pytest.fixture
def coarse_disc(monkeypatch):
    """A 6 x 4 impact-disc rule in place of the default 8 x 12."""
    monkeypatch.setattr(observables, "_RADIAL_NODES", 6)
    monkeypatch.setattr(observables, "_AZIMUTHAL_NODES", 4)


def _rec(plus, minus, spin="up"):
    return TransitRecord(counts_sigma_plus=plus, counts_sigma_minus=minus,
                         initial_spin=spin, final_spin=spin,
                         transit_duration=1e-4, peak_coupling=1.0)


# ---------------------------------------------------------------------------
# trap-loss dip


def test_dip_flat_when_no_shelving():
    mot = MotParams(p1_population=0.0)
    grid = np.linspace(-400.0, 400.0, 81)
    np.testing.assert_array_equal(mot_dip_profile(grid, mot),
                                  np.ones_like(grid))


def test_dip_values_bounded_and_symmetric():
    mot = MotParams()
    grid = np.linspace(-400.0, 400.0, 161)
    prof = mot_dip_profile(grid, mot)
    assert np.all(prof > 0.0) and np.all(prof <= 1.0)
    np.testing.assert_allclose(prof, prof[::-1], rtol=1e-12)
    assert prof[80] == prof.min()          # deepest at line center


def test_dip_half_width_consistent_with_profile():
    mot = MotParams()
    hw = dip_half_width(mot)
    assert 70.0 < hw < 150.0
    # at the half-width detuning the shelving rate equals the one-body
    # loss, so the normalized atom number is exactly 1/2
    val = mot_dip_profile([hw], mot)[0]
    assert val == pytest.approx(0.5, rel=1e-9)


def test_dip_monotone_in_probe_power():
    grid = [50.0]
    vals = [mot_dip_profile(grid, MotParams(probe_power_density=p))[0]
            for p in (5.0, 15.0, 30.0, 60.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dip_half_width_nan_when_dip_too_shallow():
    assert math.isnan(dip_half_width(MotParams(probe_power_density=1e-9)))
    assert math.isnan(dip_half_width(MotParams(p1_population=0.0)))


def test_mot_params_validation():
    with pytest.raises(ConfigError):
        mot_dip_profile([0.0], MotParams(branching=1.5))
    with pytest.raises(ConfigError):
        mot_dip_profile([math.inf], MotParams())


# ---------------------------------------------------------------------------
# deterministic ensemble machinery


def _line_counts(x0, y0, config, p_up_initial=1.0):
    """Expected emissions (sigma+, sigma-) of one fall line, with the
    coupling at the line's own standing-wave phase."""
    axial = axial_profile(constants.TWO_PI * x0 / constants.WAVELENGTH_GREEN)
    ep, em = _expected_counts([x0], [y0], [axial], config, p_up_initial)
    return float(ep[0]), float(em[0])


# the beam layouts of the quadrature: both beams on x = 0, the shift beam
# off, the shift beam off the drive axis, and the drive off the x = 0 axis
LAYOUTS = {
    "centred": CFG,
    "shift_off": replace(CFG, light_shift_on=False),
    "shift_offset": replace(CFG, shift_beam=replace(CFG.shift_beam,
                                                    axis_offset=10e-6)),
    "drive_offset": replace(CFG, drive=replace(CFG.drive, axis_offset=5e-6)),
}


def test_disc_quadrature_weights_sum_to_one():
    # with 4 | azimuthal nodes, no node is its own mirror image: the y0
    # fold halves each ring, and the x0 fold with centred beams halves it
    # again
    n_r, n_a = observables._RADIAL_NODES, observables._AZIMUTHAL_NODES
    assert n_a % 4 == 0
    nodes = {"centred": n_r * n_a // 4, "shift_off": n_r * n_a // 4,
             "shift_offset": n_r * n_a // 2, "drive_offset": n_r * n_a // 2}
    radius = CFG.geometry.impact_radius_factor * CFG.geometry.mode_waist
    for layout, config in LAYOUTS.items():
        x0, y0, w = _disc_quadrature(config)
        assert x0.shape == y0.shape == w.shape == (nodes[layout],)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(x0 ** 2 + y0 ** 2 <= radius ** 2 * (1 + 1e-12))
        assert np.all(y0 > 0.0)   # the y0 -> -y0 mirror always folds


def _full_disc_counts(config, p_up_initial):
    """Expected emissions averaged over the explicit disc rule of the
    module's node counts, every fall line evaluated, each with the
    standing-wave phase rule."""
    n_r, n_a = observables._RADIAL_NODES, observables._AZIMUTHAL_NODES
    n_p = observables._PHASE_NODES
    radius = config.geometry.impact_radius_factor * config.geometry.mode_waist
    u, w_u = np.polynomial.legendre.leggauss(n_r)
    r = radius * np.sqrt(0.5 * (u + 1.0))
    theta = 2.0 * math.pi * (np.arange(n_a) + 0.5) / n_a
    x0 = np.outer(r, np.cos(theta)).ravel()
    y0 = np.outer(r, np.sin(theta)).ravel()
    w = np.repeat(0.5 * w_u / n_a, n_a)
    v, w_v = np.polynomial.legendre.leggauss(n_p)
    axial = axial_profile(0.25 * math.pi * (v + 1.0))
    ep, em = _expected_counts(np.repeat(x0, n_p), np.repeat(y0, n_p),
                              np.tile(axial, len(w)), config, p_up_initial)
    weights = np.outer(w, 0.5 * w_v).ravel()
    return weights @ ep, weights @ em


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_folded_disc_quadrature_equals_the_full_rule(layout):
    # folding mirror lines re-sums the same rule: agreement to rounding
    config = LAYOUTS[layout]
    folded = observables._ensemble_expected_counts(config, 1.0)
    full = _full_disc_counts(config, 1.0)
    assert folded[0] > folded[1] > 0.0
    np.testing.assert_allclose(folded, full, rtol=1e-12, atol=0.0)


def test_expected_counts_time_grid_convergence():
    coarse = _line_counts(2e-6, 3e-6, CFG)
    fine_geo = replace(CFG.geometry, time_step=0.25e-6)
    fine = _line_counts(2e-6, 3e-6, replace(CFG, geometry=fine_geo))
    assert coarse[0] == pytest.approx(fine[0], rel=5e-3)
    assert coarse[1] == pytest.approx(fine[1], rel=5e-3)


def test_expected_counts_match_monte_carlo_means():
    from ybcavity.transit import run_transit_ensemble
    cfg = TransitConfig(initial_spin="up",
                        geometry=TransitGeometry(
                            impact_radius_factor=1e-9))
    eta = cfg.cavity.detection_efficiency
    ep, em = _line_counts(0.0, 0.0, cfg)
    records = run_transit_ensemble(400, 3, cfg)
    mc = np.mean([r.counts_sigma_plus for r in records])
    se = np.std([r.counts_sigma_plus for r in records], ddof=1) \
        / math.sqrt(len(records))
    assert abs(mc - eta * ep) < 4.0 * se


def test_expected_counts_follow_the_axial_standing_wave():
    # x0 = 0 is an antinode: the same counts as an axial factor of 1 there;
    # a quarter wave further the atom sits on a node and the cavity is dark
    lam = constants.WAVELENGTH_GREEN
    antinode = _line_counts(0.0, 2e-6, CFG)
    ep, em = _expected_counts([0.0], [2e-6], [1.0], CFG, 1.0)
    assert antinode == pytest.approx((float(ep[0]), float(em[0])), rel=1e-12)
    node = _line_counts(lam / 4, 2e-6, CFG)
    assert max(node) <= 1e-12 * antinode[0]


def test_phase_quadrature_matches_midpoint_average():
    # the 6-node Gauss-Legendre rule over the standing-wave phase used by
    # the ensemble averages agrees with a 16-node midpoint average
    def phase_average(phases, weights):
        axial = axial_profile(phases)
        n = len(phases)
        ep, em = _expected_counts(np.full(n, 3e-6), np.full(n, 4e-6), axial,
                                  CFG, 1.0)
        return weights @ ep, weights @ em

    u, w_u = np.polynomial.legendre.leggauss(6)
    gauss = phase_average(0.25 * math.pi * (u + 1.0), 0.5 * w_u)
    mid = phase_average(0.5 * math.pi * (np.arange(16) + 0.5) / 16,
                        np.full(16, 1.0 / 16))
    assert gauss == pytest.approx(mid, rel=2e-3)


# ---------------------------------------------------------------------------
# fluorescence spectra


def test_spectrum_without_shift_peaks_at_zero_and_is_symmetric(coarse_disc):
    grid = np.arange(-6.0, 6.01, 0.5)
    points = fluorescence_spectrum(grid, CFG, light_shift_on=False)
    assert abs(spectrum_peak(points)) <= 0.5
    assert abs(count_weighted_skewness(points)) < 0.1


def test_spectrum_homogeneous_shift_peaks_at_engineered_resonance(
        coarse_disc):
    # a very wide shift beam at fixed peak intensity shifts every atom by
    # the same amount, so the whole spectrum translates
    wide = replace(CFG.shift_beam, waist=500e-6,
                   power=CFG.shift_beam.power * (500e-6 / 50e-6) ** 2)
    cfg = replace(CFG, shift_beam=wide)
    d32 = stark_shift(+1.5, wide, cfg.scheme)
    grid = np.arange(0.0, 12.01, 0.25)
    points = fluorescence_spectrum(grid, cfg, light_shift_on=True)
    assert spectrum_peak(points) == pytest.approx(d32 / 1e6, abs=0.25)


def test_spectrum_with_shift_grows_low_frequency_tail(monkeypatch):
    # inhomogeneous shift: path segments and impact parameters that see
    # less than the full beam intensity emit below the fully shifted
    # resonance, skewing the line toward low frequency and pulling the
    # peak below the center-atom shift
    monkeypatch.setattr(observables, "_RADIAL_NODES", 8)
    monkeypatch.setattr(observables, "_AZIMUTHAL_NODES", 4)
    grid = np.arange(-2.0, 9.01, 0.25)
    points = fluorescence_spectrum(grid, CFG, light_shift_on=True)
    assert count_weighted_skewness(points) < -0.2
    d32 = stark_shift(+1.5, CFG.shift_beam, CFG.scheme)
    assert spectrum_peak(points) < d32 / 1e6


def test_shift_off_spectrum_is_exactly_even(coarse_disc):
    # without the shift beam each |detuning| is computed once and mirrored
    grid = np.arange(-1.0, 1.01, 0.5)
    counts = [p.mean_counts for p in
              fluorescence_spectrum(grid, CFG, light_shift_on=False)]
    assert counts == counts[::-1]
    assert counts[2] > counts[1] > counts[0] > 0.0


@pytest.mark.parametrize("shift_offset, detuning", [
    (0.0, None),      # shift on, at the probe detuning: a 2-d table
    (None, 0.0),      # shift off: a 2-d table
    (15e-6, 4.0),     # shift beam off the drive axis: a 3-d table
    (15e-6, 5.5),
])
def test_spectrum_points_converge_in_the_table_nodes(monkeypatch,
                                                     shift_offset, detuning):
    # the shipped node map against a dense one: 48 drive nodes for a 2-d
    # table, and 32 drive by 24 shift-fraction nodes for a 3-d one, which
    # is within 0.03% of a (8, 32, 48) map
    if shift_offset is None:
        cfg = CFG
    else:
        cfg = replace(CFG, shift_beam=replace(CFG.shift_beam,
                                              axis_offset=shift_offset))
    if detuning is None:
        detuning = transit.probe_detuning(cfg) / 1e6

    def point(nodes):
        monkeypatch.setattr(transit, "_TABLE_NODES", nodes)
        monkeypatch.setattr(transit, "_tables", {})
        return fluorescence_spectrum([detuning], cfg,
                                     shift_offset is not None)[0].mean_counts

    shipped = point(transit._TABLE_NODES)
    dense = point((8, 48) if not shift_offset else (8, 32, 24))
    assert shipped == pytest.approx(dense, rel=1.5e-3)


@pytest.mark.parametrize("shift_offset, detuning, rel", [
    (None, 0.0, 1e-3),     # shift off, at the peak
    (0.0, None, 1e-3),     # shift on, at the probe detuning
    (0.0, 3.0, 1e-2),      # shift on, the flanks
    (0.0, 7.0, 1e-2),
    (10e-6, 5.0, 1e-2),    # shift beam off the drive axis: no x0 fold
])
def test_spectrum_points_converge_in_the_disc_rule(monkeypatch, shift_offset,
                                                   detuning, rel):
    # the shipped disc rule against a polar 10 x 32 one, which is within
    # 0.03% of a 20 x 64 rule at these points
    if shift_offset is None:
        cfg = CFG
    else:
        cfg = replace(CFG, shift_beam=replace(CFG.shift_beam,
                                              axis_offset=shift_offset))
    if detuning is None:
        detuning = transit.probe_detuning(cfg) / 1e6

    def point(radial, azimuthal):
        monkeypatch.setattr(observables, "_RADIAL_NODES", radial)
        monkeypatch.setattr(observables, "_AZIMUTHAL_NODES", azimuthal)
        return fluorescence_spectrum([detuning], cfg,
                                     shift_offset is not None)[0].mean_counts

    shipped = point(observables._RADIAL_NODES, observables._AZIMUTHAL_NODES)
    assert shipped == pytest.approx(point(10, 32), rel=rel)


@pytest.mark.parametrize("shift_on, detuning", [
    (True, None),     # shift on, at the probe detuning
    (True, 3.0),
    (True, -4.25),    # the red tail, where sublevels cross resonance
    (True, -5.25),
    (True, -6.75),
    (True, -7.25),
    (False, 0.0),     # shift off, at the peak
])
def test_spectrum_points_converge_in_the_time_step(shift_on, detuning):
    # the default time step against 1 us slices; the step is not part of
    # the rate-table key, so the fine pass reads the same tables
    if detuning is None:
        detuning = transit.probe_detuning(CFG) / 1e6

    def point(cfg):
        return fluorescence_spectrum([detuning], cfg,
                                     shift_on)[0].mean_counts

    assert point(CFG) == pytest.approx(point(CFG_1US), rel=1e-3)


def test_predicted_snr_converges_in_the_time_step():
    (_, snr), = predicted_snr([9e-3], CFG)
    (_, snr_fine), = predicted_snr([9e-3], CFG_1US)
    assert snr == pytest.approx(snr_fine, rel=1e-3)


def test_spectrum_requires_sorted_grid():
    with pytest.raises(ConfigError):
        fluorescence_spectrum([1.0, 0.0], CFG, light_shift_on=False)


def test_spectrum_point_rejects_negative_counts():
    with pytest.raises(ValueError):
        SpectrumPoint(excitation_detuning=0.0, mean_counts=-0.1)


def test_spectrum_peak_translation():
    points = [SpectrumPoint(d, c) for d, c in
              ((-1.0, 0.2), (0.0, 1.0), (1.0, 0.3))]
    moved = [SpectrumPoint(p.excitation_detuning + 2.5, p.mean_counts)
             for p in points]
    assert spectrum_peak(moved) == spectrum_peak(points) + 2.5
    with pytest.raises(ConfigError):
        spectrum_peak([])


def test_skewness_edge_cases():
    assert math.isnan(count_weighted_skewness([]))
    flat = [SpectrumPoint(d, 0.0) for d in (-1.0, 0.0, 1.0)]
    assert math.isnan(count_weighted_skewness(flat))
    sym = [SpectrumPoint(d, c) for d, c in
           ((-1.0, 1.0), (0.0, 2.0), (1.0, 1.0))]
    assert count_weighted_skewness(sym) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# SNR measures


def test_snr_from_counts_basics():
    assert snr_from_counts([_rec(10, 10)], "up") == 1.0
    assert snr_from_counts([_rec(6, 3)], "up") == 2.0
    assert snr_from_counts([_rec(6, 3)], "down") == 0.5
    assert snr_from_counts([_rec(4, 0)], "up") == math.inf
    with pytest.raises(ConfigError):
        snr_from_counts([], "up")
    with pytest.raises(ConfigError):
        snr_from_counts([_rec(1, 1)], "both")


def test_dark_count_correction_identity_and_subtraction():
    out = dark_count_correct((10, 5), (0.0, 0.0), 2e-3)
    assert out == CorrectedCounts(10.0, 5.0, clamped=False)
    out = dark_count_correct((10, 5), (1.0, 0.5), 2e-3)
    assert out.counts_sigma_plus == pytest.approx(8.0)
    assert out.counts_sigma_minus == pytest.approx(4.0)
    assert not out.clamped


def test_dark_count_correction_clamps_at_zero():
    out = dark_count_correct((1, 0), (1.0, 0.5), 4e-3)
    assert out.counts_sigma_plus == 0.0
    assert out.counts_sigma_minus == 0.0
    assert out.clamped
    with pytest.raises(ConfigError):
        dark_count_correct((1, 1), (1.0, 0.5), 0.0)


def test_predicted_snr_power_sweep_structure(coarse_disc):
    powers = [0.0, 1e-3, 3e-3, 9e-3]
    curve = predicted_snr(powers, CFG, vary="power")
    values = [s for _, s in curve]
    assert values[0] == pytest.approx(1.0, abs=0.05)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] > 5.0


def test_predicted_snr_waist_sweep_prefers_wide_beam(coarse_disc):
    curve = predicted_snr([20e-6, 50e-6], CFG, vary="waist")
    assert curve[0][1] < curve[1][1]


def test_predicted_snr_independent_of_detection_efficiency(monkeypatch):
    monkeypatch.setattr(observables, "_RADIAL_NODES", 4)
    monkeypatch.setattr(observables, "_AZIMUTHAL_NODES", 4)
    lo = replace(CFG, cavity=replace(CFG.cavity, detection_efficiency=0.05))
    hi = replace(CFG, cavity=replace(CFG.cavity, detection_efficiency=1.0))
    a = predicted_snr([9e-3], lo, vary="power")
    b = predicted_snr([9e-3], hi, vary="power")
    assert a[0][1] == pytest.approx(b[0][1], rel=1e-12)


def test_predicted_snr_argument_validation():
    with pytest.raises(ConfigError):
        predicted_snr([1e-3], CFG, vary="detuning")
    with pytest.raises(ConfigError):
        predicted_snr([-1e-3], CFG, vary="power")
    with pytest.raises(ConfigError):
        predicted_snr([0.0], CFG, vary="waist")


# ---------------------------------------------------------------------------
# correlation


def test_pearson_exact_lines():
    ups = [_rec(2 * k + 1, 6 * k + 5) for k in range(5)]
    assert pearson_correlation(ups) == pytest.approx(1.0, rel=1e-12)
    downs = [_rec(2 * k, 20 - 3 * k) for k in range(5)]
    assert pearson_correlation(downs) == pytest.approx(-1.0, rel=1e-12)


def test_pearson_affine_invariance_and_flags():
    rng = np.random.default_rng(8)
    base = [_rec(int(a), int(b))
            for a, b in rng.integers(0, 30, size=(40, 2))]
    scaled = [_rec(3 * r.counts_sigma_plus + 7, r.counts_sigma_minus)
              for r in base]
    assert pearson_correlation(scaled) == pytest.approx(
        pearson_correlation(base), rel=1e-12)
    assert math.isnan(pearson_correlation([_rec(4, 1), _rec(4, 9)]))
    with pytest.raises(ConfigError):
        pearson_correlation([_rec(1, 1)])


def test_window_correlation_collapses_when_shift_engages():
    n = 300
    off = run_ensemble(n, 501, TransitConfig(
        light_shift_on=False, initial_spin="up"))
    on = run_ensemble(n, 501, TransitConfig(
        light_shift_on=True, initial_spin="up"))
    r_off = pearson_correlation(off)
    r_on = pearson_correlation(on)
    assert r_off > 0.0
    assert r_on < r_off


# ---------------------------------------------------------------------------
# emitters


def test_spectrum_csv_emitter(tmp_path):
    points = [SpectrumPoint(-1.0, 0.25), SpectrumPoint(0.0, 1.5)]
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, points)
    lines = path.read_text().splitlines()
    assert lines[0] == "# format=ybcavity.spectrum.v1"
    assert lines[1] == "detuning_MHz,mean_counts"
    assert [float(x) for x in lines[2].split(",")] == [-1.0, 0.25]


def test_snr_csv_emitter_and_label_guard(tmp_path):
    path = tmp_path / "snr.csv"
    write_snr_csv(path, [(1.0, 2.5), (9.0, 13.7)], x_label="power_mW")
    lines = path.read_text().splitlines()
    assert lines[1] == "power_mW,snr"
    assert len(lines) == 4
    with pytest.raises(ConfigError):
        write_snr_csv(path, [(1.0, 2.5)], x_label="frequency_GHz")


def test_dip_csv_and_stats_json(tmp_path):
    grid = [-50.0, 0.0, 50.0]
    vals = mot_dip_profile(grid, MotParams())
    dip_path = tmp_path / "dip.csv"
    write_dip_csv(dip_path, grid, vals)
    lines = dip_path.read_text().splitlines()
    assert lines[0] == "# format=ybcavity.dip.v1"
    assert float(lines[3].split(",")[1]) == pytest.approx(vals[1])

    stats_path = tmp_path / "stats.json"
    write_stats_json(stats_path, {"b": 2, "a": [1.5, math.pi]})
    text = stats_path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
