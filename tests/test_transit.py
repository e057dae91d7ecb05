"""Transit Monte Carlo tests: free-fall geometry, impact sampling,
the batched jump process against a scalar reference, window aggregation,
ensemble determinism, the rate-table cache, and record serialization."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ybcavity import constants, observables, transit
from ybcavity.dynamics import (axial_profile, coupling_at, drive_rabi_sq,
                               spin_rates)
from ybcavity.errors import ConfigError
from ybcavity.lightshift import ShiftBeam, ShiftResult, stark_shift
from ybcavity.transit import (
    CountRecord, TransitConfig, TransitGeometry, TransitRecord,
    child_rng, crossing_duration,
    probe_detuning, run_ensemble, run_transit_ensemble, shift_fraction,
    simulate_transit, simulate_window, transit_rate_table,
    write_count_records, write_transit_records,
)

GEO = TransitGeometry()
Z = transit.fall_heights(GEO)
CFG_ON = TransitConfig(light_shift_on=True)
CFG_OFF = TransitConfig(light_shift_on=False)
CFG_3D = replace(CFG_ON, shift_beam=replace(CFG_ON.shift_beam,
                                            axis_offset=8e-6))
# fall-line points through the mode, |z| <= 33 um, every third slice
PATH = np.flatnonzero(np.abs(Z) <= 33e-6)[::3]


# ---------------------------------------------------------------------------
# geometry


def test_crossing_duration_matches_uniform_speed_limit():
    # gravity changes the speed by ~0.3% over a 38 um crossing; the
    # first-order corrections cancel by symmetry, so the exact kinematic
    # result agrees with 2w/v to second order, v = sqrt(2 g h) at the mode
    speed = math.sqrt(2.0 * 9.80665 * GEO.drop_height)
    assert 0.36 < speed < 0.38
    exact = crossing_duration(GEO)
    uniform = 2.0 * GEO.mode_waist / speed
    assert exact == pytest.approx(uniform, rel=1e-4)
    assert 95e-6 < exact < 110e-6


def test_geometry_validation_errors():
    with pytest.raises(ConfigError):
        TransitGeometry(drop_height=0.0)
    with pytest.raises(ConfigError):
        TransitGeometry(time_step=-1e-6)


@pytest.mark.parametrize("field, value", [
    ("simulation_halfspan", 1.0),      # the span would start above the trap
    ("simulation_halfspan", 7e-3),     # at the trap: starts at rest
    ("time_step", 1e-12),              # about 1e9 segments
    ("time_step", 5e-324),             # the step count overflows a float
    ("drop_height", math.inf),
])
def test_geometry_that_cannot_be_simulated_is_rejected(field, value):
    # validation is arithmetic only: nothing of the segment grid is built
    with pytest.raises(ConfigError):
        TransitGeometry(**{field: value})


def test_segment_count_bound_is_the_trajectory_length():
    assert len(Z) == transit._segment_count(GEO) == 169
    fine = TransitGeometry(time_step=1e-6)
    assert len(transit.fall_heights(fine)) == 675
    coarse = TransitGeometry(time_step=5e-6)
    assert len(transit.fall_heights(coarse)) == 135
    # a forty times finer grid is still accepted
    TransitGeometry(time_step=1e-7)


def test_trajectory_grid_covers_simulation_span():
    assert Z[0] == GEO.simulation_halfspan
    assert np.all(np.diff(Z) < 0.0)
    # final grid point lies within one step of the bottom edge
    v_bottom = math.sqrt(2.0 * 9.80665 * (GEO.drop_height
                                          + GEO.simulation_halfspan))
    assert Z[-1] > -GEO.simulation_halfspan - v_bottom * GEO.time_step


def test_impact_draw_order_and_support():
    rng = child_rng(11, 0)
    x0, y0 = transit._impact(rng, GEO)
    # reproduce the documented draw order with a twin stream
    twin = child_rng(11, 0)
    radius = GEO.impact_radius_factor * GEO.mode_waist
    r = radius * math.sqrt(twin.random())
    theta = 2.0 * math.pi * twin.random()
    assert x0 == r * math.cos(theta)
    assert y0 == r * math.sin(theta)

    rng = child_rng(11, 1)
    r_sq = []
    for _ in range(4000):
        x0, y0 = transit._impact(rng, GEO)
        r_sq.append((x0 ** 2 + y0 ** 2) / radius ** 2)
    r_sq = np.array(r_sq)
    assert np.all(r_sq <= 1.0)
    # uniform disc: (r/R)^2 is U(0,1), mean 1/2, sd 1/sqrt(12)
    se = 1.0 / math.sqrt(12.0 * len(r_sq))
    assert abs(r_sq.mean() - 0.5) < 4.0 * se


# ---------------------------------------------------------------------------
# rates along the path


def test_shift_profile_off_is_zero():
    frac = shift_fraction(0.0, Z, CFG_OFF)
    assert frac.shape == Z.shape and np.all(frac == 0.0)


def test_shift_profile_center_and_envelope():
    beam = CFG_ON.shift_beam
    position = (0.0, 0.0, Z)
    d32 = stark_shift(+1.5, beam, CFG_ON.scheme, position=position)
    d12 = stark_shift(+0.5, beam, CFG_ON.scheme, position=position)
    frac = shift_fraction(0.0, Z, CFG_ON)
    center32 = stark_shift(+1.5, beam, CFG_ON.scheme)
    center12 = stark_shift(+0.5, beam, CFG_ON.scheme)
    # the shift is linear in the local intensity: the centre value times
    # the shift-beam fraction the rate table reads
    np.testing.assert_allclose(d32, center32 * frac, rtol=1e-12)
    np.testing.assert_allclose(d12, center12 * frac, rtol=1e-12)
    i0 = int(np.argmin(np.abs(Z)))
    ratio = math.exp(-2.0 * Z[i0] ** 2 / beam.waist ** 2)
    assert d32[i0] == pytest.approx(center32 * ratio, rel=1e-12)
    assert d12[i0] == pytest.approx(center12 * ratio, rel=1e-12)
    # one waist down the path the intensity envelope is e^-2
    iw = int(np.argmin(np.abs(Z - beam.waist)))
    expected = center32 * math.exp(-2.0 * Z[iw] ** 2 / beam.waist ** 2)
    assert d32[iw] == pytest.approx(expected, rel=1e-12)
    assert abs(d32[iw]) < 0.2 * abs(center32)


def test_probe_detuning_tracks_engineered_resonance():
    assert probe_detuning(CFG_OFF) == 0.0
    assert probe_detuning(CFG_ON) == pytest.approx(
        stark_shift(+1.5, CFG_ON.shift_beam, CFG_ON.scheme), rel=1e-12)
    explicit = TransitConfig(excitation_detuning=1.25e6)
    assert probe_detuning(explicit) == 1.25e6


def test_rate_table_shapes_and_spin_symmetry():
    # one row per time slice, one column per fall line, and each column
    # is the lookup of that line alone, to the bit
    x0, y0 = np.array([2e-6, -5e-6, 0.0]), np.array([1e-6, 3e-6, 9e-6])
    table = transit_rate_table(x0, y0, CFG_ON)
    for rates in table:
        assert rates.shape == (len(Z), 3)
    assert np.all(table[2] >= 0.0)
    for k in range(3):
        alone = transit_rate_table(x0[k:k + 1], y0[k:k + 1], CFG_ON)
        for rates, one in zip(table, alone):
            np.testing.assert_array_equal(rates[:, k], one[:, 0])
    # the table holds spin up only: by the mirror symmetry of the level
    # scheme under the linear drive, spin down swaps sigma+ and sigma-
    path = (x0[0], y0[0], Z[PATH])
    assert len(PATH) >= 15
    g = coupling_at(path, CFG_ON.cavity)
    om_sq = drive_rabi_sq(path, CFG_ON.drive, CFG_ON.cavity)
    shifts = ShiftResult(
        stark_shift(+1.5, CFG_ON.shift_beam, CFG_ON.scheme, path),
        stark_shift(+0.5, CFG_ON.shift_beam, CFG_ON.scheme, path))
    up, down = (spin_rates(spin, g, om_sq, probe_detuning(CFG_ON), shifts,
                           CFG_ON.cavity) for spin in ("up", "down"))
    np.testing.assert_allclose(down[:, [1, 0, 2]], up[:, :3], rtol=1e-12)


@pytest.mark.parametrize("shift_offset", [None, 0.0, 8e-6, 15e-6])
def test_rate_table_matches_direct_solves(shift_offset):
    # shift off, beams on one axis (2-d table), and a shift beam displaced
    # along x (3-d table; up to the 15 um that the benchmark's off-axis
    # spectra reach): interpolated rates along a path agree with the
    # rate model solved point by point, with the shifts that `stark_shift`
    # gives at the path points themselves
    if shift_offset is None:
        cfg = CFG_OFF
    else:
        cfg = TransitConfig(shift_beam=replace(
            CFG_ON.shift_beam, axis_offset=shift_offset))
    x0, y0 = 6e-6, 4e-6
    assert len(PATH) >= 15
    plus, minus, flip = (rates[PATH, 0] for rates in
                         transit_rate_table([x0], [y0], cfg))
    path = (x0, y0, Z[PATH])
    g = coupling_at(path, cfg.cavity)
    om_sq = drive_rabi_sq(path, cfg.drive, cfg.cavity)
    on = 0.0 if shift_offset is None else 1.0
    shifts = ShiftResult(
        delta_32=on * stark_shift(+1.5, cfg.shift_beam, cfg.scheme, path),
        delta_12=on * stark_shift(+0.5, cfg.shift_beam, cfg.scheme, path))
    # spin down has sigma+ and sigma- of spin up swapped
    for spin, looked_up in (("up", (plus, minus, flip)),
                            ("down", (minus, plus, flip))):
        direct = spin_rates(spin, g, om_sq, probe_detuning(cfg), shifts,
                            cfg.cavity)
        for k, got in enumerate(looked_up):
            np.testing.assert_allclose(got, direct[:, k], rtol=5e-3)


@pytest.mark.parametrize("n", [4, 5, 8, 16])
def test_spline_matrix_is_exact_on_cubics_and_at_nodes(n):
    m = (n - 1) * 7 + 1
    mat = transit._spline_matrix(n, m)
    nodes, fine = np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, m)
    rng = np.random.default_rng(n)
    for coef in rng.normal(size=(5, 4)):
        np.testing.assert_allclose(mat @ np.polyval(coef, nodes),
                                   np.polyval(coef, fine), rtol=0, atol=1e-12)
    # every node of the coarse grid is a fine-grid point, reproduced exactly
    np.testing.assert_array_equal(mat[::7], np.eye(n))


@pytest.mark.parametrize("shift_offset", [0.0, 8e-6])
def test_rate_table_passes_through_its_node_log_rates(monkeypatch,
                                                      shift_offset):
    # capture the node rates the build solves for, and find them again on
    # the fine grid: the spline is an interpolant, not a fit
    solved = []

    def spy(*args):
        out = spin_rates(*args)
        solved.append((args[1], args[2], out))
        return out

    monkeypatch.setattr(transit, "spin_rates", spy)
    cfg = TransitConfig(shift_beam=replace(
        CFG_ON.shift_beam, axis_offset=shift_offset))
    table = transit.RateTable(cfg.scheme, cfg.cavity, cfg.drive,
                              cfg.shift_beam, probe_detuning(cfg))
    (g, om_sq, rates), = solved
    weak = om_sq / table.om0_sq
    rates = rates[..., :3] / weak[..., None]
    rates[..., :2] /= ((g / table.g0) ** 2)[..., None]
    nodes = np.log(np.maximum(rates, rates.max() * 1e-30))
    assert table.three_d == (shift_offset != 0.0)
    fine = table.channels.reshape(3, *table.fine)
    at_nodes = fine[(slice(None),) + tuple(
        slice(None, None, k) for k in transit._TABLE_REFINE[:fine.ndim - 1])]
    np.testing.assert_allclose(at_nodes, np.moveaxis(nodes, -1, 0),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("det", [0.0, 3e6, -7e6])
def test_shift_off_table_is_the_coaxial_table_of_a_dark_beam(det):
    # a shift-off table is the 2-d coaxial table with no centre shift:
    # the same node maps and log rates, to the bit, as a beam of no power
    cfg = CFG_OFF
    off, dark = (transit.RateTable(cfg.scheme, cfg.cavity, cfg.drive, beam,
                                   det)
                 for beam in (None, ShiftBeam(power=0.0)))
    assert not off.three_d and not dark.three_d
    assert off.channels.tobytes() == dark.channels.tobytes()
    assert len(off.maps) == len(dark.maps) == 1
    for a, b in zip(off.maps[0], dark.maps[0]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shift_offset", [0.0, 8e-6])
def test_rate_table_nbytes_counts_every_array_it_holds(shift_offset):
    # the cache's byte budget sees the node maps of every axis, the 3-d
    # table's shift axis among them
    cfg = TransitConfig(shift_beam=replace(
        CFG_ON.shift_beam, axis_offset=shift_offset))
    table = transit.rate_table(cfg)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from arrays(item)

    held = list(arrays(list(vars(table).values())))
    assert len(held) == 1 + 3 * (2 if table.three_d else 1)
    assert table.nbytes == sum(a.nbytes for a in held)


@pytest.mark.parametrize("kind", ["2d", "3d", "zero_drive"])
def test_blocked_lookups_are_exact(monkeypatch, kind):
    # every step of a lookup is elementwise, so its blocks change no bit:
    # more than two default blocks of points, flat and in the sampler's
    # (time slice, run) broadcast, against blocks of 7 points
    cfg = {"2d": CFG_ON, "3d": CFG_3D,
           "zero_drive": replace(CFG_ON, drive=replace(CFG_ON.drive,
                                                       power=0.0))}[kind]
    table = transit.rate_table(cfg)
    assert table.three_d == (kind == "3d")
    assert table.zero == (kind == "zero_drive")

    def coordinates(x0, y0, z):
        pos = (x0, y0, z)
        coords = (coupling_at(pos, cfg.cavity),
                  drive_rabi_sq(pos, cfg.drive, cfg.cavity))
        if table.three_d:
            coords += (shift_fraction(x0, z, cfg),)
        return coords

    rng = np.random.default_rng(5)
    n = 2 * transit._LOOKUP_BLOCK + 1001
    x0, y0 = rng.uniform(-20e-6, 20e-6, size=(2, n))
    flat = coordinates(x0, y0, rng.uniform(-40e-6, 40e-6, n))
    runs = n // len(Z) + 1
    grid = coordinates(x0[:runs], y0[:runs], Z[:, None])
    assert grid[0].shape == (len(Z), runs)
    blocked = [table(*flat), table(*grid)]
    monkeypatch.setattr(transit, "_LOOKUP_BLOCK", 7)
    for got, points in zip(blocked, (flat, grid)):
        for a, b in zip(got, table(*points)):
            assert a.shape == points[0].shape
            assert np.array_equal(a, b)


def test_two_d_tables_never_evaluate_the_shift_fraction(monkeypatch):
    # beams on one axis: the table reads the coupling and the drive only,
    # so neither consumer's lookup evaluates the shift beam's profile (an
    # explicit detuning keys the table cache without a Stark shift)
    cfg = replace(CFG_ON, excitation_detuning=probe_detuning(CFG_ON))
    assert cfg.shift_on and not transit.rate_table(cfg).three_d
    x0, y0 = np.array([2e-6, -5e-6]), np.array([1e-6, 3e-6])
    rates = transit_rate_table(x0, y0, cfg)
    counts = observables._ensemble_expected_counts(cfg, 0.5)

    def refuse(*args):
        raise AssertionError("shift fraction evaluated")

    monkeypatch.setattr(transit, "shift_fraction", refuse)
    monkeypatch.setattr(ShiftBeam, "profile", refuse)
    for got, want in zip(transit_rate_table(x0, y0, cfg), rates):
        np.testing.assert_array_equal(got, want)
    assert observables._ensemble_expected_counts(cfg, 0.5) == counts


def test_three_d_tables_read_the_shift_fraction(monkeypatch):
    calls = []

    def spy(x, z, config):
        calls.append(np.broadcast(x, z).shape)
        return shift_fraction(x, z, config)

    monkeypatch.setattr(transit, "shift_fraction", spy)
    transit_rate_table([2e-6, -5e-6], [1e-6, 3e-6], CFG_3D)
    assert calls == [(len(Z), 2)]
    table = transit.rate_table(CFG_3D)
    with pytest.raises(ValueError, match="shift fraction"):
        table(np.full(3, 1e6), np.full(3, 1e12))


@pytest.mark.parametrize("cfg", [CFG_OFF, CFG_ON, CFG_3D],
                         ids=["off", "2d", "3d"])
def test_axial_factors_give_the_samplers_rates(cfg):
    # the quadrature passes the standing-wave factor at x0 itself; the
    # sampler's lookup resolves it from x0, and both read the same rates
    x0, y0 = np.array([2e-6, -5e-6, 0.13e-6]), np.array([1e-6, 3e-6, 9e-6])
    axial = axial_profile(2.0 * math.pi * x0 / constants.WAVELENGTH_GREEN)
    for got, want in zip(transit_rate_table(x0, y0, cfg, axial=axial),
                         transit_rate_table(x0, y0, cfg)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_table_builds_leave_scipy_interpolate_unimported():
    code = ("import sys\n"
            "from ybcavity.transit import TransitConfig, rate_table\n"
            "rate_table(TransitConfig())\n"
            "print('scipy.interpolate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# single transits


def test_transit_determinism_and_record_wiring():
    rec1 = simulate_transit(child_rng(5, 3), "up", CFG_ON)
    rec2 = simulate_transit(child_rng(5, 3), "up", CFG_ON)
    assert rec1 == rec2
    assert rec1.initial_spin == "up"
    assert rec1.transit_duration == crossing_duration(CFG_ON.geometry)


def test_transit_rejects_unknown_spin():
    with pytest.raises(ConfigError):
        simulate_transit(child_rng(0, 0), "sideways", CFG_ON)


def test_zero_drive_power_gives_zero_counts():
    from dataclasses import replace
    cfg = TransitConfig(
        drive=replace(CFG_ON.drive, power=0.0))
    for i in range(20):
        rec = simulate_transit(child_rng(7, i), "up", cfg)
        assert rec.counts_sigma_plus == 0
        assert rec.counts_sigma_minus == 0
        assert rec.final_spin == "up"


def test_rates_that_all_underflow_give_a_finite_table_and_no_photons():
    # a probe 1e300 Hz off resonance: the sigma+/- rates are exactly 0,
    # the table's log floor must stay above 0, and the build warns of no
    # overflow on the way
    cfg = TransitConfig(excitation_detuning=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = transit.RateTable(cfg.scheme, cfg.cavity, cfg.drive,
                                  cfg.shift_beam, probe_detuning(cfg))
    assert np.all(np.isfinite(table.channels))
    for rec in run_transit_ensemble(20, 7, cfg):
        assert rec.counts_sigma_plus == rec.counts_sigma_minus == 0


def test_peak_coupling_is_g0_on_axis_without_axial_averaging():
    # the impact disc shrinks onto x = 0, an antinode of the standing wave
    cfg = TransitConfig(geometry=TransitGeometry(impact_radius_factor=1e-9))
    rec = simulate_transit(child_rng(1, 0), "up", cfg)
    assert rec.peak_coupling == pytest.approx(cfg.cavity.g0, rel=1e-6)
    assert rec.peak_coupling == pytest.approx(
        coupling_at((0.0, 0.0, 0.0), cfg.cavity), rel=1e-9)


def test_shift_on_up_transits_are_sigma_plus_dominated():
    records = run_transit_ensemble(
        300, 21, TransitConfig(initial_spin="up"))
    plus = sum(r.counts_sigma_plus for r in records)
    minus = sum(r.counts_sigma_minus for r in records)
    assert plus > 10 * minus
    flips = sum(r.final_spin != r.initial_spin for r in records)
    assert flips / len(records) < 0.25


def test_shift_off_is_polarization_symmetric():
    records = run_transit_ensemble(
        600, 22, TransitConfig(light_shift_on=False,
                               initial_spin="up"))
    plus = np.array([r.counts_sigma_plus for r in records], dtype=float)
    minus = np.array([r.counts_sigma_minus for r in records], dtype=float)
    diff = plus - minus
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    assert abs(diff.mean()) < 3.0 * se
    # strong spin randomization scrambles the final state
    flips = sum(r.final_spin != r.initial_spin for r in records)
    assert 0.3 < flips / len(records) < 0.7


def test_far_impact_parameter_yields_almost_nothing():
    from dataclasses import replace
    geo = TransitGeometry(impact_radius_factor=3.0)
    cfg = TransitConfig(geometry=geo, initial_spin="up")
    # a fall line on the disc rim (radius factor 3) against one through
    # the mode center
    plus = transit_rate_table([3.0 * geo.mode_waist, 0.0], [0.0, 0.0],
                              cfg)[0]
    lam, lam0 = np.sum(plus, axis=0) * geo.time_step
    assert lam < 1e-3 * lam0


# ---------------------------------------------------------------------------
# the batched jump process against a scalar reference


def _reference_transit(rng, initial_spin, config):
    """The per-segment jump loop, one run at a time: the same draws in the
    same order and the same floating-point operations as the batched
    kernel.  Also returns the most flips that fell into one segment."""
    x0, y0 = transit._impact(rng, config.geometry)
    plus, minus, flip = (rates[:, 0].tolist() for rates in
                         transit_rate_table([x0], [y0], config))
    # spin down has sigma+ and sigma- of spin up swapped
    rates = {"up": (flip, plus, minus), "down": (flip, minus, plus)}
    dt = config.geometry.time_step
    spin = initial_spin
    flip, plus, minus = rates[spin]
    lam_plus = lam_minus = 0.0
    target = rng.exponential()
    i, frac, flips, most = 0, 0.0, 0, 0
    while i < len(flip):
        seg = dt * (1.0 - frac)
        hazard = flip[i] * seg
        if hazard >= target and hazard > 0.0:
            tau = target / flip[i]
            lam_plus += plus[i] * tau
            lam_minus += minus[i] * tau
            frac += tau / dt
            spin = "down" if spin == "up" else "up"
            flip, plus, minus = rates[spin]
            target = rng.exponential()
            flips += 1
            most = max(most, flips)
            if frac >= 1.0:
                i, frac, flips = i + 1, 0.0, 0
        else:
            target -= hazard
            lam_plus += plus[i] * seg
            lam_minus += minus[i] * seg
            i, frac, flips = i + 1, 0.0, 0
    eta = config.cavity.detection_efficiency
    peak = float(coupling_at((x0, y0, 0.0), config.cavity))
    return TransitRecord(
        counts_sigma_plus=int(rng.poisson(eta * lam_plus)),
        counts_sigma_minus=int(rng.poisson(eta * lam_minus)),
        initial_spin=initial_spin, final_spin=spin,
        transit_duration=crossing_duration(config.geometry),
        peak_coupling=peak), most


def _reference_spin(rng, config):
    if config.initial_spin != "random":
        return config.initial_spin
    return "up" if rng.random() < 0.5 else "down"


def _reference_window(rng, config):
    n_atoms = int(rng.poisson(config.atom_rate * config.window))
    dark_plus, dark_minus = config.cavity.dark_rates_per_s
    plus = int(rng.poisson(dark_plus * config.window))
    minus = int(rng.poisson(dark_minus * config.window))
    for _ in range(n_atoms):
        rec, _ = _reference_transit(rng, _reference_spin(rng, config), config)
        plus += rec.counts_sigma_plus
        minus += rec.counts_sigma_minus
    return CountRecord(window=config.window, counts_sigma_plus=plus,
                       counts_sigma_minus=minus, atom_count=n_atoms)


@pytest.mark.parametrize("time_step", [1e-6, 5e-6])
@pytest.mark.parametrize("initial_spin", ["random", "down"])
@pytest.mark.parametrize("shift_on", [True, False])
def test_batched_runners_match_the_scalar_reference(shift_on, initial_spin,
                                                    time_step):
    cfg = TransitConfig(
        light_shift_on=shift_on, initial_spin=initial_spin,
        geometry=TransitGeometry(time_step=time_step))
    n = 60
    most = 0
    for i, rec in enumerate(run_transit_ensemble(n, 8, cfg)):
        rng = child_rng(8, i)
        ref, flips = _reference_transit(rng, _reference_spin(rng, cfg), cfg)
        assert rec == ref
        most = max(most, flips)
    assert run_ensemble(n, 9, cfg) == [_reference_window(child_rng(9, i), cfg)
                                       for i in range(n)]
    if time_step == 5e-6 and not shift_on:
        # the coarse grid puts several flips into one segment
        assert most >= 2


def test_default_time_step_matches_1us_on_paired_streams():
    # spin up, shift off, where flips are frequent: run i draws from the
    # same stream at both steps, so the paired differences isolate the
    # step; the hazard inversion is exact for piecewise-constant rates,
    # so only the rates' slicing differs
    cfg = TransitConfig(light_shift_on=False, initial_spin="up")
    fine = replace(cfg, geometry=replace(cfg.geometry, time_step=1e-6))
    n, seed = 3000, 61

    def columns(config):
        records = run_transit_ensemble(n, seed, config)
        return np.array([(r.counts_sigma_plus, r.counts_sigma_minus,
                          r.final_spin != r.initial_spin)
                         for r in records], dtype=float)

    diff = columns(cfg) - columns(fine)
    se = diff.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(diff.mean(axis=0)) <= 3.0 * se)
    assert np.mean(np.any(diff != 0.0, axis=1)) < 0.02


# ---------------------------------------------------------------------------
# windows


def test_zero_atom_windows_reproduce_dark_rates():
    cfg = TransitConfig(atom_rate=0.0)
    n = 2000
    counts = [simulate_window(child_rng(31, i), replace(cfg, window=2e-3))
              for i in range(n)]
    assert all(c.atom_count == 0 for c in counts)
    mean_p = np.mean([c.counts_sigma_plus for c in counts])
    mean_m = np.mean([c.counts_sigma_minus for c in counts])
    # Poisson means 2.0 and 1.0 for 2 ms at (1.0, 0.5) per ms
    assert abs(mean_p - 2.0) < 4.0 * math.sqrt(2.0 / n)
    assert abs(mean_m - 1.0) < 4.0 * math.sqrt(1.0 / n)


def test_dark_counts_scale_linearly_with_window():
    cfg = TransitConfig(atom_rate=0.0)
    n = 1500
    for window, mean in ((1e-3, 1.0), (4e-3, 4.0)):
        vals = [simulate_window(child_rng(37, i), replace(cfg, window=window))
                .counts_sigma_plus for i in range(n)]
        assert abs(np.mean(vals) - mean) < 4.0 * math.sqrt(mean / n)


def test_window_atom_number_is_poisson_with_rate_times_window():
    cfg = TransitConfig()
    n = 1200
    # the records of simulate_window on streams 0..n-1
    atoms = [rec.atom_count for rec in run_ensemble(n, 41, cfg)]
    mean = cfg.atom_rate * cfg.window
    assert abs(np.mean(atoms) - mean) < 4.0 * math.sqrt(mean / n)


def test_window_argument_validation():
    cfg = TransitConfig()
    with pytest.raises(ConfigError):
        simulate_window(child_rng(0, 0), replace(cfg, atom_rate=-1.0))
    with pytest.raises(ConfigError):
        simulate_window(child_rng(0, 0), replace(cfg, window=0.0))


# ---------------------------------------------------------------------------
# ensembles and stream splitting


def test_child_rng_rejects_negative_keys():
    with pytest.raises(ConfigError):
        child_rng(-1, 0)
    with pytest.raises(ConfigError):
        child_rng(0, -2)


def test_child_rng_rejects_keys_outside_uint64_integers():
    # too large for a uint64 key, and a float that would be truncated
    with pytest.raises(ConfigError):
        child_rng(2 ** 64, 0)
    with pytest.raises(ConfigError):
        child_rng(1.5, 0)
    with pytest.raises(ConfigError):
        child_rng(0, 2 ** 64)
    with pytest.raises(ConfigError):
        child_rng(True, 0)
    top = child_rng(2 ** 64 - 1, np.uint64(3)).random()
    assert top == child_rng(np.uint64(2 ** 64 - 1), 3).random()


def test_run_ensemble_requires_at_least_one_run():
    with pytest.raises(ConfigError):
        run_ensemble(0, 1, CFG_ON)


def test_single_run_matches_child_stream_zero():
    cfg = TransitConfig()
    ensemble = run_ensemble(1, 123, cfg)
    direct = simulate_window(child_rng(123, 0), cfg)
    assert ensemble == [direct]


def test_window_ensemble_bit_identical_across_chunk_sizes(monkeypatch):
    cfg = TransitConfig()
    monkeypatch.setattr(transit, "_CHUNK", 16)
    whole = run_ensemble(16, 99, cfg)
    for chunk in (1, 7):
        monkeypatch.setattr(transit, "_CHUNK", chunk)
        assert run_ensemble(16, 99, cfg) == whole


def test_transit_ensemble_bit_identical_across_chunk_sizes(monkeypatch):
    cfg = TransitConfig(initial_spin="random")
    monkeypatch.setattr(transit, "_CHUNK", 24)
    whole = run_transit_ensemble(24, 77, cfg)
    for chunk in (1, 7):
        monkeypatch.setattr(transit, "_CHUNK", chunk)
        assert run_transit_ensemble(24, 77, cfg) == whole
    spins = {r.initial_spin for r in whole}
    assert spins == {"up", "down"}


def test_first_windows_do_not_depend_on_the_ensemble_size():
    # perfbench's scatter check compares the first 64 windows of an
    # 800-window run with a 64-window run
    cfg = TransitConfig(light_shift_on=False)
    assert run_ensemble(800, 3, cfg)[:64] == run_ensemble(64, 3, cfg)


def test_same_seed_same_dataset_different_seed_differs():
    cfg = TransitConfig()
    a = run_ensemble(6, 5, cfg)
    b = run_ensemble(6, 5, cfg)
    c = run_ensemble(6, 6, cfg)
    assert a == b
    assert a != c


def test_rate_table_cache_is_bounded_by_bytes(monkeypatch):
    monkeypatch.setattr(transit, "_tables", {})
    configs = [TransitConfig(light_shift_on=False,
                             excitation_detuning=d)
               for d in (1e6, 2e6, 3e6)]
    first = transit.rate_table(configs[0])
    monkeypatch.setattr(transit, "_TABLE_BUDGET", int(2.5 * first.nbytes))
    assert transit.rate_table(configs[0]) is first
    # shift off, the rates are even in the detuning: one table for +/-
    assert transit.rate_table(replace(configs[0],
                                      excitation_detuning=-1e6)) is first
    for cfg in configs[1:]:
        assert transit.rate_table(cfg) is transit.rate_table(cfg)
        held = sum(t.nbytes for t in transit._tables.values())
        assert held <= transit._TABLE_BUDGET
    # the least recently used table made room for the third
    assert len(transit._tables) == 2
    assert transit.rate_table(configs[0]) is not first


# ---------------------------------------------------------------------------
# records and serialization


def test_record_invariants():
    with pytest.raises(ValueError):
        TransitRecord(counts_sigma_plus=-1, counts_sigma_minus=0,
                      initial_spin="up", final_spin="up",
                      transit_duration=1e-4, peak_coupling=1.0)
    with pytest.raises(ValueError):
        TransitRecord(counts_sigma_plus=0, counts_sigma_minus=0,
                      initial_spin="up", final_spin="up",
                      transit_duration=0.0, peak_coupling=1.0)
    with pytest.raises(ValueError):
        CountRecord(window=2e-3, counts_sigma_plus=0, counts_sigma_minus=-3,
                    atom_count=0)


def test_transit_records_csv_round_trip(tmp_path):
    records = run_transit_ensemble(10, 13, TransitConfig())
    path = tmp_path / "transits.csv"
    write_transit_records(path, records, emit_format="csv")
    with open(path, newline="") as fh:
        assert fh.readline() == "# format=ybcavity.transit.v1\n"
        rows = list(csv.DictReader(fh))
    assert [TransitRecord(
        counts_sigma_plus=int(row["counts_sigma_plus"]),
        counts_sigma_minus=int(row["counts_sigma_minus"]),
        initial_spin=row["initial_spin"], final_spin=row["final_spin"],
        transit_duration=float(row["transit_duration_s"]),
        peak_coupling=float(row["peak_coupling_rad_s"]))
        for row in rows] == records


def test_window_records_jsonl_round_trip(tmp_path):
    records = run_ensemble(8, 17, TransitConfig())
    path = tmp_path / "windows.jsonl"
    write_count_records(path, records, emit_format="jsonl")
    header, *rows = map(json.loads, path.read_text().splitlines())
    assert header == {"format": "ybcavity.window.v1"}
    # the window length is a JSON number, not a string
    assert all(type(row["window_s"]) is float for row in rows)
    assert [CountRecord(window=row["window_s"],
                        counts_sigma_plus=row["counts_sigma_plus"],
                        counts_sigma_minus=row["counts_sigma_minus"],
                        atom_count=row["atom_count"])
            for row in rows] == records


def test_writers_reject_unknown_format(tmp_path):
    records = run_transit_ensemble(3, 2, TransitConfig())
    with pytest.raises(ConfigError):
        write_transit_records(tmp_path / "x.bin", records,
                              emit_format="parquet")
    assert not (tmp_path / "x.bin").exists()


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        TransitConfig(initial_spin="left")
    with pytest.raises(ConfigError):
        TransitConfig(atom_rate=-5.0)
    with pytest.raises(ConfigError):
        TransitConfig(window=0.0)
    with pytest.raises(ConfigError):
        TransitConfig(excitation_detuning=math.nan)
    # more than 10^3 atoms expected per window (here 2 x 10^3)
    with pytest.raises(ConfigError):
        TransitConfig(atom_rate=1e6, window=2e-3)
    # a ShiftBeam is a BeamParams subclass whose detuning the drive never
    # reads, so it is no drive
    with pytest.raises(ConfigError, match="drive must be a BeamParams"):
        TransitConfig(drive=ShiftBeam())
