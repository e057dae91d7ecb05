"""Light-shift model tests.

The absolute scale is pinned by the frozen one-time calibration (the
+6.8 MHz benchmark); everything else is checked against closed-form
expectations computed independently in the tests.
"""

import math
import warnings

import numpy as np
import pytest

from ybcavity import constants
from ybcavity.atomic import LevelScheme
from ybcavity.errors import ConfigError, ResonanceError
from ybcavity.lightshift import (
    BeamParams, ShiftBeam, ShiftResult, stark_shift, sublevel_splitting,
)

SCHEME = LevelScheme()


# ---------------------------------------------------------------------------
# intensity profile


def test_peak_intensity_closed_form():
    beam = ShiftBeam()
    expected = 2 * 9e-3 / (math.pi * (50e-6) ** 2)
    assert beam.peak_intensity == pytest.approx(expected, rel=1e-12)
    assert beam.profile(0.0, 0.0) == 1.0
    assert expected == pytest.approx(2.29e6, rel=1e-2)


def test_intensity_gaussian_falloff_and_zero_power():
    beam = ShiftBeam()
    assert beam.profile(beam.waist, 0.0) == pytest.approx(
        math.exp(-2.0), rel=1e-12)
    # the shift follows the intensity: e^-2 of its peak one waist out
    center, at_w = stark_shift(+1.5, beam, SCHEME,
                               position=(np.array([0.0, beam.waist]), 0.0,
                                         0.0))
    assert at_w == pytest.approx(center * math.exp(-2.0), rel=1e-12)
    dark = ShiftBeam(power=0.0, waist=50e-6,
                     detuning=ShiftBeam.detuning)
    radii = np.array([0.0, 10e-6, 1e-3])
    for m in (+1.5, +0.5):
        assert np.all(stark_shift(m, dark, SCHEME,
                                  position=(radii, 0.0, 0.0)) == 0.0)


def test_profile_far_off_the_axis_is_zero():
    # the squared distance overflows to inf: the intensity's limit, 0, is
    # the answer and no overflow warning is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        off = BeamParams(power=1e-3, waist=50e-6, axis_offset=1e300)
        assert off.profile(0.0, 0.0) == 0.0
        far = ShiftBeam(axis_offset=-1e300).profile(np.array([0.0, 1e300]),
                                                     0.0)
    np.testing.assert_array_equal(far, 0.0)


def test_beam_validation():
    with pytest.raises(ConfigError):
        BeamParams(power=-1e-3, waist=50e-6)
    with pytest.raises(ConfigError):
        BeamParams(power=1e-3, waist=0.0)
    for name in ("power", "waist", "detuning", "axis_offset"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                ShiftBeam(**{"power": 1e-3, "waist": 50e-6, name: bad})


# ---------------------------------------------------------------------------
# calibrated benchmark and ratio structure


def test_calibrated_shift_hits_benchmark():
    shift = stark_shift(+1.5, ShiftBeam(), SCHEME)
    assert shift == pytest.approx(6.8e6, rel=1e-9)
    # within 10% is the acceptance statement; the calibration makes it exact
    assert abs(shift - 6.8e6) / 6.8e6 < 0.10


def test_shift_signs_are_opposite_at_operating_detuning():
    beam = ShiftBeam()
    assert stark_shift(+1.5, beam, SCHEME) > 0
    assert stark_shift(+0.5, beam, SCHEME) < 0
    # mirror sublevels see identical shifts (pi light, |m| symmetry)
    assert stark_shift(-1.5, beam, SCHEME) == stark_shift(+1.5, beam, SCHEME)
    assert stark_shift(-0.5, beam, SCHEME) == stark_shift(+0.5, beam, SCHEME)


def test_splitting_from_measured_anchor():
    result = sublevel_splitting(8.5e6, SCHEME)
    assert result.delta_12 == pytest.approx(-16.0e6, rel=1e-9)
    assert 22e6 <= result.splitting <= 26e6
    assert result.splitting == result.delta_32 - result.delta_12


def test_splitting_is_linear_in_anchor():
    r1 = sublevel_splitting(8.5e6, SCHEME)
    r2 = sublevel_splitting(6.8e6, SCHEME)
    assert r2.splitting == pytest.approx(r1.splitting * 6.8 / 8.5, rel=1e-12)
    r0 = sublevel_splitting(0.0, SCHEME)
    assert r0.delta_12 == 0.0 and r0.splitting == 0.0


def test_direct_shift_matches_ratio_inference():
    """stark_shift on m'=1/2 agrees with the ratio applied to the m'=3/2 value."""
    beam = ShiftBeam()
    d32 = stark_shift(+1.5, beam, SCHEME)
    d12 = stark_shift(+0.5, beam, SCHEME)
    inferred = sublevel_splitting(d32, SCHEME, detuning=beam.detuning)
    assert d12 == pytest.approx(inferred.delta_12, rel=1e-12)


# ---------------------------------------------------------------------------
# linearity, sign flips, limits


def test_linearity_in_power_over_a_decade():
    rng = np.random.default_rng(20260825)
    base = stark_shift(+1.5, ShiftBeam(power=9e-3), SCHEME) / 9e-3
    for _ in range(10):
        p = float(rng.uniform(0.9e-3, 9e-3))
        s = stark_shift(+1.5, ShiftBeam(power=p), SCHEME)
        assert s / p == pytest.approx(base, rel=1e-9)


def test_contribution_sign_flips_with_detuning_sign():
    scheme = SCHEME
    # park the beam red of the F''=3/2 component instead of blue
    red_of_32 = -constants.TWO_PI * (scheme.d1_hyperfine_splitting + 300e6)
    beam = ShiftBeam(detuning=red_of_32)
    assert stark_shift(+1.5, beam, scheme) < 0


def test_far_detuned_limit_vanishes():
    beam = ShiftBeam(detuning=-constants.TWO_PI * 1e18)
    for m in (+1.5, +0.5):
        # a 3e9-fold increase in detuning shrinks the MHz-scale shift to
        # the few-mHz level
        assert abs(stark_shift(m, beam, SCHEME)) < 0.1


# ---------------------------------------------------------------------------
# resonance guard


def test_resonance_floor_raises():
    with pytest.raises(ResonanceError):
        stark_shift(+0.5, ShiftBeam(detuning=0.0), SCHEME)
    near_32 = constants.TWO_PI * (-SCHEME.d1_hyperfine_splitting + 1e3)
    with pytest.raises(ResonanceError):
        stark_shift(+1.5, ShiftBeam(detuning=near_32), SCHEME)


def test_uncoupled_component_does_not_trigger_resonance_guard():
    # m'=3/2 has zero weight on F''=1/2, so sitting on that component is fine
    beam = ShiftBeam(detuning=0.0)
    value = stark_shift(+1.5, beam, SCHEME)
    assert math.isfinite(value) and value > 0


def test_non_pi_beam_rejected():
    # the beam has no polarization to get wrong; a sublevel outside
    # F' = 3/2 is still an error
    with pytest.raises(ValueError):
        stark_shift(+2.5, ShiftBeam(), SCHEME)


# ---------------------------------------------------------------------------
# spatial field


def _shifts_at(beam, x, y, z):
    """(delta_32, delta_12) arrays at the points (x[i], y[i], z[i])."""
    position = tuple(np.asarray(v, dtype=float) for v in (x, y, z))
    return (stark_shift(+1.5, beam, SCHEME, position=position),
            stark_shift(+0.5, beam, SCHEME, position=position))


def test_shift_field_single_point_consistency():
    beam = ShiftBeam()
    # scalars in, float out; a one-point array gives the same value
    scalar = stark_shift(+1.5, beam, SCHEME, position=(0.0, 0.0, 0.0))
    assert type(scalar) is float
    d32, d12 = _shifts_at(beam, [0.0], [0.0], [0.0])
    assert d32.shape == d12.shape == (1,)
    assert d32[0] == stark_shift(+1.5, beam, SCHEME)
    assert d12[0] == stark_shift(+0.5, beam, SCHEME)
    res = ShiftResult(delta_32=float(d32[0]), delta_12=float(d12[0]))
    assert res.splitting == res.delta_32 - res.delta_12


def test_shift_field_gaussian_scaling_and_peak_location():
    beam = ShiftBeam()
    w = beam.waist
    (c32, w32), (c12, w12) = _shifts_at(beam, [0, w], [0, 0], [0, 0])
    assert w32 == pytest.approx(c32 * math.exp(-2.0), rel=1e-12)
    assert w12 == pytest.approx(c12 * math.exp(-2.0), rel=1e-12)
    # beam propagates along y: moving along y does not change the shift,
    # moving along z does
    (on_axis, along_y, along_z), _ = _shifts_at(
        beam, [0, 0, 0], [0, 123e-6, 0], [0, 0, w])
    assert along_y == on_axis
    assert along_z == pytest.approx(on_axis * math.exp(-2.0), rel=1e-12)
    xs = np.linspace(-2 * w, 2 * w, 41)
    values, _ = _shifts_at(beam, xs, np.zeros(41), np.zeros(41))
    assert np.argmax(values) == 20  # the grid midpoint, x = 0
    # a grid of positions broadcasts: x along rows, z along columns
    zs = np.array([0.0, 0.5 * w, w])
    grid = stark_shift(+1.5, beam, SCHEME,
                       position=(xs[:, None], 0.0, zs[None, :]))
    assert grid.shape == (41, 3)
    np.testing.assert_allclose(grid[:, 0], values, rtol=1e-12)


def test_axis_offset_moves_the_peak():
    beam = ShiftBeam(axis_offset=30e-6)
    on_old_axis = stark_shift(+1.5, beam, SCHEME, position=(0, 0, 0))
    on_new_axis = stark_shift(+1.5, beam, SCHEME, position=(30e-6, 0, 0))
    assert on_new_axis > on_old_axis
    assert on_new_axis == pytest.approx(
        stark_shift(+1.5, ShiftBeam(), SCHEME), rel=1e-12)


def test_shift_result_invariant():
    ok = ShiftResult(delta_32=5e6, delta_12=-1e6)
    assert ok.splitting == 6e6
